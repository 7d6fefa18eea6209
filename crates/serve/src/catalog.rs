//! The stock serving catalog: LeNet-5 end to end, plus small sequential
//! networks *sampled* from the zoo's AlexNet / VGG-16 / MobileNetV1 layer
//! structure.
//!
//! The samples keep the interesting dimension of their donors — the
//! channel/kernel structure that sets the crossbar tile footprint — while
//! shrinking the spatial extent so a single-request forward stays in the
//! low-millisecond range. Together the four models exercise the serving
//! scenarios the engine exists to measure: a multi-layer CNN (LeNet), a
//! programming-dominated dense head (AlexNet's classifier), a
//! square-channel conv block (VGG), and a many-tiny-tile depthwise +
//! pointwise pair (MobileNet). Their summed tile footprint is what the
//! global cache budget is measured against.

use crate::cluster::ModelSpec;
use oxbar_nn::synthetic;
use oxbar_nn::transformer::{LmConfig, LmWeights};
use oxbar_nn::{Activation, Conv2d, Dense, Layer, Network, TensorShape};

/// Builds a spec from a finished network, generating reproducible
/// synthetic filter banks (the trained-weight substitute used across the
/// workspace) from `seed`.
#[must_use]
pub fn spec_from_network(network: Network, seed: u64) -> ModelSpec {
    let filters = synthetic::filter_banks(&network, 6, seed);
    ModelSpec {
        name: network.name().to_string(),
        network,
        filters,
        lm: None,
    }
}

/// The full LeNet-5 from the zoo: the only network small enough to serve
/// end to end at full spatial resolution.
#[must_use]
pub fn lenet5_model() -> ModelSpec {
    spec_from_network(oxbar_nn::zoo::lenet5(), 0x1e4e7)
}

/// A classifier-head sample of AlexNet: two dense layers with the zoo
/// model's fc6/fc7 shape scaled 1024 → 256 → 10. Dense layers drive one
/// crossbar pass per request over a large weight matrix, so this model is
/// *programming-dominated*: serving it cold (reprogram per request) costs
/// many times the weight-stationary steady state.
#[must_use]
pub fn alexnet_fc_sample() -> ModelSpec {
    let mut net = Network::new("alexnet_fc_sample", TensorShape::flat(1024));
    let mut fc6 = Dense::new("fc6_sample", 1024, 256);
    fc6.activation = Activation::Relu;
    net.push(Layer::Dense(fc6));
    net.push(Layer::Dense(Dense::new("fc8_sample", 256, 10)));
    spec_from_network(net, 0xa1e8)
}

/// A conv-block sample of VGG-16: one 3×3, 64→64, stride-1, padded
/// convolution (the block-1 channel structure) on a 6×6 patch, closed by
/// a small classifier.
#[must_use]
pub fn vgg16_conv_sample() -> ModelSpec {
    let mut net = Network::new("vgg16_conv_sample", TensorShape::new(6, 6, 64));
    let conv = Conv2d::new("conv1_2_sample", TensorShape::new(6, 6, 64), 3, 3, 64, 1, 1)
        .with_activation(Activation::Relu);
    let shape = conv.output_shape();
    net.push(Layer::Conv2d(conv));
    net.push(Layer::Dense(Dense::new("fc_sample", shape.elements(), 10)));
    spec_from_network(net, 0x5995)
}

/// A depthwise-separable sample of MobileNetV1: a 3×3 depthwise
/// convolution (32 groups) followed by its 1×1 pointwise expansion
/// 32 → 64 on a 6×6 patch. Depthwise groups map to many tiny crossbar
/// tiles, the opposite cache profile from the dense head.
#[must_use]
pub fn mobilenet_sample() -> ModelSpec {
    let mut net = Network::new("mobilenet_dw_sample", TensorShape::new(6, 6, 32));
    let dw = Conv2d::new("dw2_sample", TensorShape::new(6, 6, 32), 3, 3, 32, 1, 1)
        .with_groups(32)
        .with_activation(Activation::Relu);
    let mid = dw.output_shape();
    net.push(Layer::Conv2d(dw));
    let pw = Conv2d::new("pw2_sample", mid, 1, 1, 64, 1, 0).with_activation(Activation::Relu);
    let out = pw.output_shape();
    net.push(Layer::Conv2d(pw));
    net.push(Layer::Dense(Dense::new("fc_sample", out.elements(), 10)));
    spec_from_network(net, 0x30b1)
}

/// The tiny autoregressive transformer ([`LmConfig::tiny`]): one decoder
/// block, d_model 32, 4 heads, a 32-token vocabulary. Its dense stack —
/// six projections plus the LM head — serves through the same
/// weight-stationary tile cache as the CNNs, while the per-token
/// attention matmuls run on the uncached dynamic path. Deliberately
/// *not* part of [`stock_catalog`] (whose size-4 shape serving reports
/// pin down); benchmarks and tests admit it explicitly.
#[must_use]
pub fn llm_tiny() -> ModelSpec {
    let weights = LmWeights::synthetic(LmConfig::tiny(), 0x11f7);
    ModelSpec {
        name: "llm_tiny".to_string(),
        network: weights.network("llm_tiny"),
        filters: weights.filters(),
        lm: Some(weights),
    }
}

/// The whole stock catalog, in the order the serving benchmarks admit it.
#[must_use]
pub fn stock_catalog() -> Vec<ModelSpec> {
    vec![
        lenet5_model(),
        alexnet_fc_sample(),
        vgg16_conv_sample(),
        mobilenet_sample(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_nn::reference::Executor;

    #[test]
    fn every_catalog_model_shape_checks_and_executes() {
        for spec in stock_catalog() {
            assert_eq!(
                spec.network.audit_shapes(),
                None,
                "shape mismatch in {}",
                spec.name
            );
            let input = synthetic::activations(spec.network.input(), 6, 1);
            let (out, _) = Executor::new(6)
                .forward(&spec.network, &input, &spec.filters)
                .expect("catalog models are sequential");
            assert_eq!(out.shape().elements(), 10, "{}", spec.name);
        }
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<String> = stock_catalog().into_iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn llm_tiny_dense_stack_mirrors_its_weights() {
        let spec = llm_tiny();
        let weights = spec.lm.as_ref().expect("llm_tiny is a language model");
        assert_eq!(spec.network.audit_shapes(), None);
        assert_eq!(
            spec.filters.len(),
            spec.network.conv_like_layers().count(),
            "filters cover the dense stack"
        );
        for (index, bank) in spec.filters.iter().enumerate() {
            assert_eq!(
                bank.weights,
                weights.bank(index).weights,
                "bank {index} diverges from the transformer weights"
            );
        }
        // Not in the stock catalog: serving reports pin its size at 4.
        assert_eq!(stock_catalog().len(), 4);
    }

    #[test]
    fn catalog_is_reproducible() {
        let a = stock_catalog();
        let b = stock_catalog();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.network, y.network);
            assert_eq!(x.filters.len(), y.filters.len());
            for (fx, fy) in x.filters.iter().zip(&y.filters) {
                assert_eq!(fx.weights, fy.weights);
            }
        }
    }
}
