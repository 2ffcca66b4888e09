//! Deterministic wire-fault injection: a seeded TCP proxy that
//! replays a scripted `parchmint-chaos/v1` plan against every
//! connection it forwards.
//!
//! The compute pipeline earned its fault model in PR 4 by *injecting*
//! panics, NaNs, and stalls instead of hoping they never happen; this
//! module extends the same discipline to the network. [`ChaosProxy`]
//! sits between a client and the daemon and applies per-connection
//! scripted faults — delay before or inside a frame, byte throttling,
//! truncation mid-frame, abrupt close, garbage prefix bytes — chosen
//! by **accept order**, so the same plan against the same traffic
//! produces the same wire history every run. Garbage bytes come from a
//! seeded xorshift generator; nothing in a plan consults a clock or an
//! OS RNG.
//!
//! The proxy is exposed two ways: `parchmint chaos-proxy PLAN.json
//! --listen A --upstream B` for smoke scripts, and [`ChaosProxy::spawn`]
//! as an in-process harness for integration tests.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::Value;

/// Schema identifier for chaos plans.
pub const CHAOS_SCHEMA: &str = "parchmint-chaos/v1";

/// Which half of the proxied conversation a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → daemon bytes (the default).
    Request,
    /// Daemon → client bytes.
    Response,
}

/// One injectable wire fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep `ms` before forwarding the first byte.
    DelayBefore {
        /// Milliseconds to sleep.
        ms: u64,
    },
    /// Forward `after_bytes`, then sleep `ms` mid-stream — lands
    /// inside a frame for any frame longer than the boundary.
    DelayInside {
        /// Bytes forwarded before the stall.
        after_bytes: u64,
        /// Milliseconds to sleep at the boundary.
        ms: u64,
    },
    /// Forward at most `chunk_bytes` per write, sleeping `ms` between
    /// writes — a deterministic slow link.
    Throttle {
        /// Maximum bytes per write.
        chunk_bytes: u64,
        /// Milliseconds to sleep between writes.
        ms: u64,
    },
    /// Forward `after_bytes`, then half-close toward the destination:
    /// the peer sees a torn EOF mid-frame but can still respond.
    Truncate {
        /// Bytes forwarded before the cut.
        after_bytes: u64,
    },
    /// Forward `after_bytes`, then abruptly close both directions.
    Close {
        /// Bytes forwarded before the close.
        after_bytes: u64,
    },
    /// Write `bytes` of seeded printable garbage before any real
    /// traffic — it glues onto the peer's first frame.
    GarbagePrefix {
        /// Number of garbage bytes to inject.
        bytes: u64,
    },
}

/// Which connections a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selector {
    /// Exactly the Nth accepted connection (0-based).
    Index(u64),
    /// Every `every`th connection starting at `first`.
    Every { every: u64, first: u64 },
}

/// One parsed fault entry: where, which direction, what.
#[derive(Debug, Clone)]
struct FaultSpec {
    selector: Selector,
    direction: Direction,
    kind: FaultKind,
}

/// A parsed, validated `parchmint-chaos/v1` plan.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    seed: u64,
    faults: Vec<FaultSpec>,
}

fn require_u64(entry: &Value, key: &str, context: &str) -> Result<u64, String> {
    entry[key]
        .as_u64()
        .ok_or_else(|| format!("{context}: missing or non-integer `{key}`"))
}

impl ChaosPlan {
    /// Parses and validates a plan document.
    pub fn from_json_str(text: &str) -> Result<ChaosPlan, String> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| format!("chaos plan is not JSON: {e}"))?;
        let schema = doc["schema"].as_str().unwrap_or("");
        if schema != CHAOS_SCHEMA {
            return Err(format!(
                "unsupported chaos schema {schema:?} (expected {CHAOS_SCHEMA:?})"
            ));
        }
        let seed = doc["seed"].as_u64().unwrap_or(0);
        let entries = doc["faults"]
            .as_array()
            .ok_or("chaos plan: `faults` must be an array")?;
        let mut faults = Vec::with_capacity(entries.len());
        for (position, entry) in entries.iter().enumerate() {
            let context = format!("faults[{position}]");
            let selector = match (entry["connection"].as_u64(), entry["every"].as_u64()) {
                (Some(_), Some(_)) => {
                    return Err(format!("{context}: `connection` and `every` are exclusive"))
                }
                (Some(index), None) => Selector::Index(index),
                (None, Some(every)) if every > 0 => Selector::Every {
                    every,
                    first: entry["first"].as_u64().unwrap_or(0),
                },
                (None, Some(_)) => return Err(format!("{context}: `every` must be positive")),
                (None, None) => return Err(format!("{context}: needs `connection` or `every`")),
            };
            let direction = match entry["direction"].as_str().unwrap_or("request") {
                "request" => Direction::Request,
                "response" => Direction::Response,
                other => return Err(format!("{context}: unknown direction {other:?}")),
            };
            let kind = match entry["fault"].as_str().unwrap_or("") {
                "delay_before" => FaultKind::DelayBefore {
                    ms: require_u64(entry, "ms", &context)?,
                },
                "delay_inside" => FaultKind::DelayInside {
                    after_bytes: require_u64(entry, "after_bytes", &context)?,
                    ms: require_u64(entry, "ms", &context)?,
                },
                "throttle" => FaultKind::Throttle {
                    chunk_bytes: require_u64(entry, "chunk_bytes", &context)?.max(1),
                    ms: require_u64(entry, "ms", &context)?,
                },
                "truncate" => FaultKind::Truncate {
                    after_bytes: require_u64(entry, "after_bytes", &context)?,
                },
                "close" => FaultKind::Close {
                    after_bytes: require_u64(entry, "after_bytes", &context)?,
                },
                "garbage_prefix" => FaultKind::GarbagePrefix {
                    bytes: require_u64(entry, "bytes", &context)?,
                },
                other => return Err(format!("{context}: unknown fault {other:?}")),
            };
            faults.push(FaultSpec {
                selector,
                direction,
                kind,
            });
        }
        Ok(ChaosPlan { seed, faults })
    }

    /// The plan's garbage seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults scripted for connection `connection` (accept order,
    /// 0-based) in `direction`, in plan order.
    pub fn faults_for(&self, connection: u64, direction: Direction) -> Vec<FaultKind> {
        self.faults
            .iter()
            .filter(|spec| spec.direction == direction)
            .filter(|spec| match spec.selector {
                Selector::Index(index) => index == connection,
                Selector::Every { every, first } => {
                    connection >= first && (connection - first) % every == 0
                }
            })
            .map(|spec| spec.kind.clone())
            .collect()
    }
}

/// Fault-application counters, shared across all proxied connections.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    connections: AtomicU64,
    delays: AtomicU64,
    throttled_writes: AtomicU64,
    truncated: AtomicU64,
    closed: AtomicU64,
    garbage_bytes: AtomicU64,
}

impl ChaosCounters {
    /// Connections accepted and forwarded.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Acquire)
    }
    /// Delay faults applied (before- and inside-frame).
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::Acquire)
    }
    /// Writes constrained by a throttle fault.
    pub fn throttled_writes(&self) -> u64 {
        self.throttled_writes.load(Ordering::Acquire)
    }
    /// Streams cut by a truncate fault.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Acquire)
    }
    /// Connections killed by a close fault.
    pub fn closed(&self) -> u64 {
        self.closed.load(Ordering::Acquire)
    }
    /// Seeded garbage bytes injected.
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage_bytes.load(Ordering::Acquire)
    }
}

/// The next number of the xorshift64 stream in `state`.
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// SplitMix64 finalizer: spreads adjacent seeds (connection indices,
/// the response-direction `^ 1` tweak, client backoff seeds) across the
/// whole state space, and never returns zero, so the xorshift stream is
/// always live.
pub(crate) fn scramble(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// `count` seeded printable bytes, never a frame terminator.
fn garbage(seed: u64, count: u64) -> Vec<u8> {
    let mut state = scramble(seed);
    (0..count)
        .map(|_| b'!' + (xorshift(&mut state) % 94) as u8)
        .collect()
}

fn close_both(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// Pumps one direction of one connection, applying its faults.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    faults: Vec<FaultKind>,
    seed: u64,
    counters: Arc<ChaosCounters>,
) {
    for fault in &faults {
        match fault {
            FaultKind::DelayBefore { ms } => {
                std::thread::sleep(Duration::from_millis(*ms));
                counters.delays.fetch_add(1, Ordering::AcqRel);
            }
            FaultKind::GarbagePrefix { bytes } => {
                if dst.write_all(&garbage(seed, *bytes)).is_err() {
                    close_both(&src, &dst);
                    return;
                }
                counters.garbage_bytes.fetch_add(*bytes, Ordering::AcqRel);
            }
            _ => {}
        }
    }
    // The earliest truncate/close boundary wins; `true` marks a
    // truncate (half-close), `false` an abrupt close.
    let limit = faults
        .iter()
        .filter_map(|fault| match fault {
            FaultKind::Truncate { after_bytes } => Some((*after_bytes, true)),
            FaultKind::Close { after_bytes } => Some((*after_bytes, false)),
            _ => None,
        })
        .min_by_key(|&(after, _)| after);
    let mut delays: Vec<(u64, u64)> = faults
        .iter()
        .filter_map(|fault| match fault {
            FaultKind::DelayInside { after_bytes, ms } => Some((*after_bytes, *ms)),
            _ => None,
        })
        .collect();
    delays.sort_unstable();
    let throttle = faults.iter().find_map(|fault| match fault {
        FaultKind::Throttle { chunk_bytes, ms } => Some((*chunk_bytes, *ms)),
        _ => None,
    });

    let mut forwarded = 0u64;
    let mut next_delay = 0usize;
    let mut buf = [0u8; 8 << 10];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = &buf[..n];
        while !chunk.is_empty() {
            // Stall exactly at a delay boundary before forwarding on.
            while next_delay < delays.len() && delays[next_delay].0 <= forwarded {
                std::thread::sleep(Duration::from_millis(delays[next_delay].1));
                counters.delays.fetch_add(1, Ordering::AcqRel);
                next_delay += 1;
            }
            let mut take = chunk.len();
            if let Some((after, _)) = limit {
                take = take.min(after.saturating_sub(forwarded) as usize);
            }
            if next_delay < delays.len() {
                take = take.min((delays[next_delay].0 - forwarded) as usize);
            }
            if let Some((chunk_bytes, _)) = throttle {
                take = take.min(chunk_bytes as usize);
            }
            if take == 0 {
                // The truncate/close budget is spent.
                match limit {
                    Some((_, true)) => {
                        counters.truncated.fetch_add(1, Ordering::AcqRel);
                        let _ = dst.shutdown(Shutdown::Write);
                        let _ = src.shutdown(Shutdown::Read);
                    }
                    _ => {
                        counters.closed.fetch_add(1, Ordering::AcqRel);
                        close_both(&src, &dst);
                    }
                }
                return;
            }
            if dst.write_all(&chunk[..take]).is_err() {
                close_both(&src, &dst);
                return;
            }
            forwarded += take as u64;
            chunk = &chunk[take..];
            if let Some((_, ms)) = throttle {
                counters.throttled_writes.fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if let Some((after, _)) = limit {
            if forwarded >= after {
                match limit {
                    Some((_, true)) => {
                        counters.truncated.fetch_add(1, Ordering::AcqRel);
                        let _ = dst.shutdown(Shutdown::Write);
                        let _ = src.shutdown(Shutdown::Read);
                    }
                    _ => {
                        counters.closed.fetch_add(1, Ordering::AcqRel);
                        close_both(&src, &dst);
                    }
                }
                return;
            }
        }
    }
    // Propagate EOF so the destination sees the close promptly.
    let _ = dst.shutdown(Shutdown::Write);
}

/// A running fault-injecting TCP proxy.
pub struct ChaosProxy {
    local: SocketAddr,
    counters: Arc<ChaosCounters>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen`, resolves `upstream`, and starts forwarding with
    /// `plan`'s faults applied per accepted connection.
    pub fn spawn(plan: ChaosPlan, listen: &str, upstream: &str) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        let local = listener.local_addr()?;
        let upstream_addr = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("upstream {upstream} did not resolve")))?;
        let counters = Arc::new(ChaosCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_counters = Arc::clone(&counters);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || {
                let mut index = 0u64;
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    let Ok(daemon) =
                        TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(10))
                    else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    accept_counters.connections.fetch_add(1, Ordering::AcqRel);
                    let connection = index;
                    index += 1;
                    // Decorrelate garbage streams across connections
                    // and directions while staying seed-deterministic.
                    let seed = plan.seed() ^ connection.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let spawn_pump = |src: &TcpStream,
                                      dst: &TcpStream,
                                      direction: Direction,
                                      seed: u64|
                     -> Option<JoinHandle<()>> {
                        let src = src.try_clone().ok()?;
                        let dst = dst.try_clone().ok()?;
                        let faults = plan.faults_for(connection, direction);
                        let counters = Arc::clone(&accept_counters);
                        std::thread::Builder::new()
                            .name(format!("chaos-pump-{connection}"))
                            .spawn(move || pump(src, dst, faults, seed, counters))
                            .ok()
                    };
                    let request = spawn_pump(&client, &daemon, Direction::Request, seed);
                    let response = spawn_pump(&daemon, &client, Direction::Response, seed ^ 1);
                    if request.is_none() || response.is_none() {
                        close_both(&client, &daemon);
                    }
                    // Pump threads are detached: they exit when their
                    // sockets close, which the faults and peers drive.
                }
            })
            .expect("spawn chaos accept loop");

        Ok(ChaosProxy {
            local,
            counters,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The proxy's bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Shared fault counters.
    pub fn counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.counters)
    }

    /// Blocks until the accept loop exits (the CLI runs until killed).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops accepting and joins the accept loop. Established pump
    /// threads drain on their own as their sockets close.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> ChaosPlan {
        ChaosPlan::from_json_str(text).expect("plan parses")
    }

    #[test]
    fn plans_parse_and_select_by_accept_order() {
        let plan = plan(
            r#"{
                "schema": "parchmint-chaos/v1",
                "seed": 7,
                "faults": [
                    {"connection": 0, "fault": "truncate", "after_bytes": 600},
                    {"connection": 1, "fault": "delay_inside", "after_bytes": 200, "ms": 50},
                    {"connection": 1, "direction": "response", "fault": "delay_before", "ms": 5},
                    {"every": 3, "first": 2, "fault": "garbage_prefix", "bytes": 16}
                ]
            }"#,
        );
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.faults_for(0, Direction::Request),
            vec![FaultKind::Truncate { after_bytes: 600 }]
        );
        assert_eq!(
            plan.faults_for(1, Direction::Request),
            vec![FaultKind::DelayInside {
                after_bytes: 200,
                ms: 50
            }]
        );
        assert_eq!(
            plan.faults_for(1, Direction::Response),
            vec![FaultKind::DelayBefore { ms: 5 }]
        );
        // every=3 first=2 → connections 2, 5, 8, ...
        for connection in [2u64, 5, 8] {
            assert_eq!(
                plan.faults_for(connection, Direction::Request),
                vec![FaultKind::GarbagePrefix { bytes: 16 }],
                "connection {connection}"
            );
        }
        assert!(plan.faults_for(3, Direction::Request).is_empty());
        assert!(plan.faults_for(0, Direction::Response).is_empty());
    }

    #[test]
    fn malformed_plans_are_rejected_with_context() {
        let cases = [
            ("not json at all", "not JSON"),
            (
                r#"{"schema": "wrong/v9", "faults": []}"#,
                "unsupported chaos schema",
            ),
            (
                r#"{"schema": "parchmint-chaos/v1"}"#,
                "`faults` must be an array",
            ),
            (
                r#"{"schema": "parchmint-chaos/v1", "faults": [{"fault": "close", "after_bytes": 1}]}"#,
                "needs `connection` or `every`",
            ),
            (
                r#"{"schema": "parchmint-chaos/v1", "faults": [{"connection": 0, "fault": "warp"}]}"#,
                "unknown fault",
            ),
            (
                r#"{"schema": "parchmint-chaos/v1", "faults": [{"connection": 0, "fault": "delay_before"}]}"#,
                "missing or non-integer `ms`",
            ),
            (
                r#"{"schema": "parchmint-chaos/v1", "faults": [{"connection": 0, "every": 2, "fault": "close", "after_bytes": 1}]}"#,
                "exclusive",
            ),
        ];
        for (text, needle) in cases {
            let error = ChaosPlan::from_json_str(text).expect_err(text);
            assert!(error.contains(needle), "{text} -> {error}");
        }
    }

    #[test]
    fn garbage_is_seed_deterministic_and_newline_free() {
        let a = garbage(42, 256);
        let b = garbage(42, 256);
        let c = garbage(43, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&byte| (b'!'..=b'~').contains(&byte)));
    }
}
