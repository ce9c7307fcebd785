//! The one `flowd` wire client: `flowc submit` and the daemon's test suites
//! reach a daemon only through this module.
//!
//! A [`Connection`] is kept alive across requests; [`exchange`] is one
//! request on a fresh connection and never retries; [`send_with_retry`] is
//! `flowc submit`'s policy over one-shot exchanges.  A response is awaited
//! for 30 s, or the request's `deadline_ms` plus 5 s if longer.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use httpwire::{HttpError, Limits, Request, Response};

/// How long a response is awaited.  The daemon answers within its deadline
/// (10 s by default; a request may lower it, not raise it) plus its 100 ms
/// watchdog grace, so this covers a default daemon.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long to wait for the response to `request`.
fn response_wait(request: &Request) -> Duration {
    let deadline = request.query_param("deadline_ms");
    let deadline_ms = deadline.and_then(|ms| ms.parse().ok()).unwrap_or(0);
    READ_TIMEOUT.max(Duration::from_millis(deadline_ms) + Duration::from_secs(5))
}

type Wire = (BufWriter<TcpStream>, BufReader<TcpStream>);

fn connect(addr: impl ToSocketAddrs) -> std::io::Result<(SocketAddr, Wire)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream.peer_addr()?, (BufWriter::new(stream), reader)))
}

/// A keep-alive connection (`TCP_NODELAY`) to a daemon.  After a response
/// that closes it (`Connection: close`) or a broken exchange, the next
/// [`Connection::send`] connects again first.
pub struct Connection {
    peer: SocketAddr,
    wire: Option<Wire>,
}

impl Connection {
    /// Connects to the daemon at `addr`.
    pub fn open(addr: impl ToSocketAddrs) -> std::io::Result<Connection> {
        let (peer, wire) = connect(addr)?;
        Ok(Connection {
            peer,
            wire: Some(wire),
        })
    }

    /// Sends `request` and reads its response.
    pub fn send(&mut self, request: &Request) -> Result<Response, HttpError> {
        if self.wire.is_none() {
            self.wire = Some(connect(self.peer)?.1);
        }
        let (writer, _) = self.wire.as_mut().expect("connected above");
        let sent = (writer.get_ref())
            .set_read_timeout(Some(response_wait(request)))
            .and_then(|()| httpwire::write_request(writer, request));
        // A daemon that answers before reading (the accept-time `503`) and
        // closes makes the rest of a long request fail to send; its answer
        // is still there to read.
        let read = self.read();
        match sent {
            Ok(()) => read,
            Err(e) => {
                self.wire = None;
                read.map_err(|_| e.into())
            }
        }
    }

    /// Reads one response without sending a request: the daemon's
    /// accept-time `503` comes this way.
    pub fn read(&mut self) -> Result<Response, HttpError> {
        let closed = HttpError::Closed { clean: true };
        let (_, reader) = self.wire.as_mut().ok_or(closed)?;
        let result = httpwire::read_response(reader, &Limits::default());
        if !matches!(&result, Ok(response) if !response.closes_connection()) {
            self.wire = None;
        }
        result
    }
}

/// The `/run` request for `design`, sent as ASCII AIGER, under `query`.
pub fn run_request(design: &aig::Aig, query: &str) -> Request {
    Request::new("POST", &format!("/run?{query}"))
        .with_header("content-type", "text/x-aiger")
        .with_body(aig::io::render_design(design, aig::io::Format::AigerAscii))
}

/// One exchange on a fresh connection, never retried.
pub fn exchange(addr: impl ToSocketAddrs, request: &Request) -> Result<Response, HttpError> {
    Connection::open(addr)?.send(request)
}

/// A single-attempt failure, split by whether a retry can help.
#[derive(Debug)]
enum SendError {
    /// The daemon was unreachable; nothing was dispatched.
    Connect(std::io::Error),
    /// The wire broke mid-exchange; the request may have been dispatched.
    Wire(HttpError),
}

fn send_once(addr: &str, request: &Request) -> Result<Response, SendError> {
    let mut connection = Connection::open(addr).map_err(SendError::Connect)?;
    connection.send(request).map_err(SendError::Wire)
}

/// What [`send_with_retry`] ended with.
#[derive(Debug)]
pub struct Delivery {
    /// The final response (possibly still a `503`).
    pub response: Response,
    /// Exchanges attempted, the last included.
    pub attempts: u32,
    /// Some `503` carried `X-Flowd-Store: degraded`: the backpressure came
    /// from the daemon's degraded store rather than from load.
    pub store_degraded: bool,
}

/// Sends `request` to the daemon at `addr`, retrying `503` backpressure and
/// connect failures up to `retries` extra attempts with capped exponential
/// backoff.  A `504` is returned, and a broken wire is an error, at once:
/// the request may have been dispatched.
pub fn send_with_retry(addr: &str, request: &Request, retries: u32) -> Result<Delivery, String> {
    let mut store_degraded = false;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let (retry_after_s, reason) = match send_once(addr, request) {
            Ok(response) => {
                let header = |name| response.headers.get(name).map(String::as_str);
                let busy = response.status == 503;
                let degraded = busy && header("x-flowd-store") == Some("degraded");
                let after = header("retry-after").and_then(|v| v.parse::<u64>().ok());
                store_degraded |= degraded;
                if !busy || attempts > retries {
                    return Ok(Delivery {
                        response,
                        attempts,
                        store_degraded,
                    });
                }
                let cause = if degraded {
                    "store degraded"
                } else {
                    "overloaded"
                };
                (after, format!("flowd at {addr} answered 503 ({cause})"))
            }
            Err(SendError::Connect(e)) => {
                let reason = format!("cannot connect to flowd at {addr}: {e}");
                if attempts > retries {
                    return Err(reason);
                }
                (None, reason)
            }
            Err(SendError::Wire(e)) => return Err(format!("flowd at {addr}: {e}")),
        };
        let delay = backoff_delay(addr, attempts, retry_after_s);
        eprintln!(
            "flowc: {reason}; retrying in {} ms ({attempts}/{retries})",
            delay.as_millis()
        );
        std::thread::sleep(delay);
    }
}

/// Exponential backoff: base 100 ms doubled per attempt, capped at 2 s, with
/// deterministic ±50% jitter derived from `(addr, attempt)` — reruns sleep
/// identically while concurrent clients hitting different daemons spread.
/// A server `Retry-After` (seconds) raises the floor.
fn backoff_delay(addr: &str, attempt: u32, retry_after_s: Option<u64>) -> Duration {
    let exp = 100u64
        .saturating_mul(1u64 << (attempt - 1).min(10))
        .min(2_000);
    let mut h = flow_core::Fnv64::new();
    h.write_str(addr);
    h.write_u64(u64::from(attempt));
    let jittered = exp * (50 + h.finish() % 101) / 100;
    Duration::from_millis(jittered.max(retry_after_s.unwrap_or(0) * 1_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_wait_follows_the_request_deadline() {
        let wait = |target: &str| response_wait(&Request::new("POST", target));
        assert_eq!(wait("/run?flow=resyn2&deadline_ms=300"), READ_TIMEOUT);
        assert_eq!(wait("/run?deadline_ms=soon"), READ_TIMEOUT);
        assert_eq!(wait("/run?deadline_ms=60000"), Duration::from_secs(65));
    }
}
