//! Load generation against a running server: an open loop with Poisson
//! arrivals on one pipelined connection (a sender and a receiver
//! thread), and a closed loop on two connections (one thread each).
//! Every response is checked bit for bit against the pool's reference.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use prime_serve::wire::{decode_response, encode_request, frame, split_frame};
use prime_serve::{Request, Response, MAX_FRAME_BYTES};

use crate::trace::{span_at, Span, Tracer};
use crate::workloads::{bits, Pool, SplitMix};

/// How long a client waits for a response before counting the request
/// (and every later one on the connection) as a transport failure.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Outcome counts of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub transport: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.transport + self.mismatched
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.transport += other.transport;
        self.mismatched += other.mismatched;
    }

    fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Mismatch => self.mismatched += 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Outcome {
    Ok,
    Shed,
    Error,
    Mismatch,
}

fn check(response: &Response, expected: &[u32], id: u64) -> Outcome {
    match response {
        Response::Output { values, .. } if bits(values) == expected => Outcome::Ok,
        Response::Output { values, .. } => {
            println!("MISMATCH request {id}: served {values:?} differs from the reference");
            Outcome::Mismatch
        }
        Response::Overloaded { .. } => Outcome::Shed,
        Response::Error { message, .. } => {
            println!("ERROR request {id}: {message}");
            Outcome::Error
        }
    }
}

/// Frames one request for template `t` of the pool.
fn encode(pool: &Pool, model: &str, t: usize, id: u64) -> Vec<u8> {
    let template = pool.templates[t];
    let request = Request {
        id,
        model: model.to_string(),
        mode: template.mode,
        input: pool.inputs[template.input].clone(),
    };
    frame(&encode_request(&request).expect("pool requests fit a frame"))
        .expect("pool requests fit a frame")
}

/// The read half of a connection: buffers bytes until a whole response
/// frame has arrived.
struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Reader {
    fn new(stream: TcpStream) -> Reader {
        let _ = stream.set_read_timeout(Some(RESPONSE_TIMEOUT));
        Reader {
            stream,
            buf: Vec::new(),
        }
    }

    fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some((payload, used)) =
                split_frame(&self.buf, MAX_FRAME_BYTES).map_err(|e| e.to_string())?
            {
                let response = decode_response(payload).map_err(|e| e.to_string())?;
                self.buf.drain(..used);
                return Ok(response);
            }
            let mut chunk = [0u8; 8192];
            let n = self.stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenResult {
    /// Completion minus scheduled send, per answered request (ms).
    pub latency_ms: Vec<f64>,
    /// Actual minus scheduled send, per sent request (ms).
    pub lag_ms: Vec<f64>,
    pub tally: Tally,
}

/// Sends Poisson arrivals at `rate` per second for `secs` seconds on one
/// pipelined connection and waits for every response. Each request is
/// timed from its scheduled send, so a stalled sender shows as latency.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    model: &str,
    pool: &Pool,
    rate: f64,
    secs: f64,
    rng: &mut SplitMix,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<OpenResult, String> {
    let mut offsets = Vec::new();
    let mut t = rng.exp(rate);
    while t < secs {
        offsets.push(Duration::from_secs_f64(t));
        t += rng.exp(rate);
    }
    let picks: Vec<usize> = offsets.iter().map(|_| pool.pick(rng)).collect();
    let frames: Vec<Vec<u8>> = picks
        .iter()
        .enumerate()
        .map(|(i, &t)| encode(pool, model, t, i as u64 + 1))
        .collect();
    let n = frames.len();

    let mut writer = connect(addr)?;
    let reader = Reader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent_at: Vec<Instant> = Vec::with_capacity(n);
    let (answers, send_error) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(reader, n));
        let mut send_error = None;
        for (offset, bytes) in offsets.iter().zip(&frames) {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent_at.push(Instant::now());
            if let Err(e) = writer.write_all(bytes) {
                send_error = Some(format!("send: {e}"));
                break;
            }
        }
        (
            receiver.join().expect("receiver thread panicked"),
            send_error,
        )
    });
    if let Some(e) = send_error {
        println!("open loop: {e}");
    }

    let mut result = OpenResult {
        tally: Tally {
            sent: sent_at.len() as u64,
            ..Tally::default()
        },
        ..OpenResult::default()
    };
    for (i, sent) in sent_at.iter().enumerate() {
        let due = start + offsets[i];
        result
            .lag_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        match answers[i] {
            Some((done, ref response)) => {
                let id = i as u64 + 1;
                result
                    .tally
                    .count(check(response, &pool.expected[picks[i]], id));
                result
                    .latency_ms
                    .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
                tracer.record("serve.request", *sent, done, parent, Some(id));
            }
            None => result.tally.transport += 1,
        }
    }
    Ok(result)
}

/// Reads up to `n` responses, keyed by request id (1-based); stops early
/// on a transport error.
fn receive(mut reader: Reader, n: usize) -> Vec<Option<(Instant, Response)>> {
    let mut answers: Vec<Option<(Instant, Response)>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        match reader.recv() {
            Ok(response) => {
                let done = Instant::now();
                let slot = usize::try_from(response.id())
                    .ok()
                    .and_then(|id| id.checked_sub(1));
                match slot.and_then(|s| answers.get_mut(s)) {
                    Some(entry) => *entry = Some((done, response)),
                    None => println!("open loop: response with unknown id {}", response.id()),
                }
            }
            Err(e) => {
                println!("open loop: {e}");
                break;
            }
        }
    }
    answers
}

/// Result of one closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedResult {
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Round-trip per answered request (ms).
    pub latency_ms: Vec<f64>,
}

impl ClosedResult {
    /// Correct responses per second.
    pub fn capacity_rps(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed_s
    }
}

/// Runs `connections` clients, each sending its next request as soon as
/// the previous one is answered, for `secs` seconds.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    model: &str,
    pool: &Pool,
    connections: usize,
    secs: f64,
    rng: &mut SplitMix,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<ClosedResult, String> {
    let frames: Vec<Vec<u8>> = (0..pool.templates.len())
        .map(|t| encode(pool, model, t, t as u64 + 1))
        .collect();
    let streams: Vec<SplitMix> = (0..connections).map(|c| rng.fork(c as u64)).collect();
    let (epoch, traced) = (tracer.epoch(), tracer.enabled());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let per_client: Vec<Result<(ClosedResult, Vec<Span>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut rng| {
                let frames = &frames;
                scope.spawn(move || {
                    let mut writer = connect(addr)?;
                    let mut reader =
                        Reader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
                    let mut result = ClosedResult::default();
                    let mut spans = Vec::new();
                    while Instant::now() < deadline {
                        let t = pool.pick(&mut rng);
                        let sent = Instant::now();
                        result.tally.sent += 1;
                        if writer.write_all(&frames[t]).is_err() {
                            result.tally.transport += 1;
                            break;
                        }
                        match reader.recv() {
                            Ok(response) => {
                                let done = Instant::now();
                                let id = t as u64 + 1;
                                let outcome = if response.id() == id {
                                    check(&response, &pool.expected[t], id)
                                } else {
                                    println!(
                                        "closed loop: response id {} for request {id}",
                                        response.id()
                                    );
                                    Outcome::Mismatch
                                };
                                result.tally.count(outcome);
                                result.latency_ms.push((done - sent).as_secs_f64() * 1e3);
                                if traced {
                                    spans.push(span_at(
                                        epoch,
                                        "serve.request",
                                        sent,
                                        done,
                                        parent,
                                        Some(id),
                                    ));
                                }
                            }
                            Err(e) => {
                                println!("closed loop: {e}");
                                result.tally.transport += 1;
                                break;
                            }
                        }
                    }
                    Ok((result, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = ClosedResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..ClosedResult::default()
    };
    for client in per_client {
        let (result, spans) = client?;
        total.tally.add(&result.tally);
        total.latency_ms.extend(result.latency_ms);
        tracer.extend(spans);
    }
    Ok(total)
}

/// Round-trips `count` digital requests one at a time with a pause
/// between them, so each meets an idle server; returns the round-trip
/// times (µs) and the outcome counts.
pub fn idle_round_trips(
    addr: SocketAddr,
    model: &str,
    pool: &Pool,
    count: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<(Vec<f64>, Tally), String> {
    let mut writer = connect(addr)?;
    let mut reader = Reader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
    let digital = pool.digital();
    let mut times = Vec::with_capacity(count);
    let mut tally = Tally::default();
    for i in 0..count {
        let t = digital[i % digital.len()];
        let id = i as u64 + 1;
        let bytes = encode(pool, model, t, id);
        std::thread::sleep(Duration::from_millis(3));
        let sent = Instant::now();
        tally.sent += 1;
        writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        let response = reader.recv()?;
        let done = Instant::now();
        tally.count(check(&response, &pool.expected[t], id));
        times.push((done - sent).as_secs_f64() * 1e6);
        tracer.record("serve.idle_request", sent, done, parent, Some(id));
    }
    Ok((times, tally))
}
