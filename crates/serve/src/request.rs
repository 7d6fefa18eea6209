//! The serving request model: typed ids, submitted requests, and
//! completed responses.

use oxbar_nn::reference::Tensor3;
use serde::{Deserialize, Serialize};

/// Handle to a model admitted into a [`Cluster`](crate::cluster::Cluster),
/// in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ModelId(pub usize);

/// Handle to a submitted request, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// Handle to an autoregressive generation sequence, in begin order.
///
/// A sequence is a *long-lived* request: each decode step is submitted
/// as an ordinary queued request (so tokens batch, route, and fail over
/// exactly like CNN traffic), and step `t + 1` enters the queue only
/// when step `t` completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SequenceId(pub u64);

/// The sequence facts attached to a token-step [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenCompletion {
    /// The generation sequence this step belongs to.
    pub sequence: SequenceId,
    /// The step's position in the sequence (0 = first/prefill token).
    pub step: usize,
    /// The token this step emitted (greedy argmax over the logits).
    pub token: u32,
    /// Whether this was the sequence's final step.
    pub done: bool,
}

/// One inference request against an admitted model.
///
/// Time is counted in abstract, caller-defined *ticks*: the engine never
/// reads a wall clock, so a request trace replays identically every run.
/// `arrival` drives the batcher's coalescing window; `deadline` (if any)
/// is advisory — it is carried through to the [`Completion`] so a load
/// generator can score deadline misses against measured service times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferRequest {
    /// The admitted model to run.
    pub model: ModelId,
    /// The quantized input activation tensor (must match the model's
    /// input shape and the device activation range).
    pub input: Tensor3,
    /// Arrival tick. Submissions need not be tick-ordered: admission
    /// inserts each request in arrival order (equal ticks keep submission
    /// order), so concurrent clients can submit freely.
    pub arrival: u64,
    /// Optional advisory completion deadline, in ticks.
    pub deadline: Option<u64>,
}

/// One finished request: the output tensor plus the scheduling facts a
/// serving report needs (which batch ran it, and how full that batch was).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The request this completes.
    pub id: RequestId,
    /// The model that served it.
    pub model: ModelId,
    /// The request's arrival tick (copied through for latency replay).
    pub arrival: u64,
    /// The request's advisory deadline, if any.
    pub deadline: Option<u64>,
    /// The network's final output tensor.
    pub output: Tensor3,
    /// Index of the batch that executed this request, in dispatch order.
    pub batch_seq: usize,
    /// How many requests shared that batch.
    pub batch_size: usize,
    /// Set when this completion is one decode step of an autoregressive
    /// sequence; `None` for ordinary (CNN) inference. Token-step
    /// completions carry the logits in `output` (flat, one lane per
    /// vocabulary entry).
    pub sequence: Option<TokenCompletion>,
}

/// Derives the deterministic seed for one request of a trace.
///
/// Load generators synthesize each request's input from this value, so a
/// trace is a pure function of `(base, index)` — independent of model
/// mix, batching decisions, and scheduling. This is the request-level
/// half of the determinism discipline; the device-level half is
/// [`oxbar_sim::config::tile_seed`], keyed per model at admission.
#[must_use]
pub fn request_seed(base: u64, index: u64) -> u64 {
    // SplitMix64 step over the index stream, offset by the base.
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seeds_are_stable_and_distinct() {
        assert_eq!(request_seed(7, 0), request_seed(7, 0));
        assert_ne!(request_seed(7, 0), request_seed(7, 1));
        assert_ne!(request_seed(7, 0), request_seed(8, 0));
    }

    #[test]
    fn ids_order_like_their_indices() {
        assert!(ModelId(0) < ModelId(1));
        assert!(RequestId(3) < RequestId(10));
    }
}
