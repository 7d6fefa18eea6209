//! Loopback connection helpers shared by the two wire workloads.

use oxbar_serve::protocol::{read_message, write_message};
use oxbar_serve::{ClientFrame, ServeEngine, Server, ServerConfig, ServerFrame};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Read and write deadline on the client socket: a server that stops
/// answering fails the run instead of hanging it.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// Starts a server over `engine` with the stock front-end settings and
/// opens one client connection to it, the greeting already read.
///
/// # Errors
///
/// Any bind, connect or handshake failure.
pub fn serve(engine: ServeEngine) -> io::Result<(Server, TcpStream)> {
    let server = Server::start(engine, ServerConfig::default())?;
    let mut stream = TcpStream::connect(server.addr())?;
    stream.set_read_timeout(Some(DEADLINE))?;
    stream.set_write_timeout(Some(DEADLINE))?;
    match read_message::<ServerFrame>(&mut stream) {
        Ok(ServerFrame::Hello { .. }) => Ok((server, stream)),
        Ok(other) => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
        Err(e) => Err(io::Error::other(e.to_string())),
    }
}

/// The server engine's `(retries, sheds)` counts, asked over the wire.
/// Frames still in flight ahead of the reply are skipped.
///
/// # Errors
///
/// Any wire failure, including the read deadline expiring.
pub fn retries_and_sheds(stream: &mut TcpStream) -> io::Result<(u64, u64)> {
    write_message(stream, &ClientFrame::Stats)?;
    loop {
        match read_message::<ServerFrame>(stream) {
            Ok(ServerFrame::Stats { retries, sheds, .. }) => return Ok((retries, sheds)),
            Ok(_) => {}
            Err(e) => return Err(io::Error::other(e.to_string())),
        }
    }
}
