//! Hardened socket framing shared by the line-protocol and HTTP
//! transports: a poll-based line reader that can tell a *stalled* peer
//! from an *idle* one.
//!
//! `BufRead::read_line` on a plain socket cannot defend against a
//! slowloris peer: it loops over `fill_buf` internally, and a client
//! dripping one byte per second makes steady progress, so a per-read
//! socket timeout never fires and the connection is held open forever.
//! [`LineReader`] instead sets a short poll interval as the socket
//! read timeout and surfaces every tick to the caller as a
//! [`Poll::Pending`] carrying the **age of the partial frame** — time
//! since the first byte of the still-incomplete line arrived — and
//! whether the frame has just *stalled*: a whole tick of waiting on the
//! socket passed with no new byte. The caller owns policy: a partial
//! frame older than the read timeout is a slow-drip eviction, an empty
//! buffer past the idle timeout is a keep-alive eviction, and a
//! connection with requests in flight is never evicted at all.
//!
//! A frame that ends the buffer is handed over whole, so a
//! multi-megabyte request line is not copied again after it arrives.
//!
//! Frames are bounded ([`Poll::Oversized`]) so an attacker cannot buy
//! unbounded memory with one endless line, and EOF reports whether it
//! tore a frame mid-assembly ([`Poll::Eof`]) — the counter behind the
//! chaos smoke's truncate-fault assertions.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How often a [`LineReader`] wakes to re-examine timeout policy when
/// no bytes are arriving (upper bound; see [`poll_interval`]).
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// One observation from [`LineReader::poll_line`].
#[derive(Debug)]
pub enum Poll {
    /// A complete line, terminator stripped (`\n`, and `\r\n`).
    Frame(Vec<u8>),
    /// No complete line yet. `frame_age` is `Some` with the age of the
    /// partially-assembled frame when bytes of an incomplete line are
    /// buffered, `None` when the connection is simply idle.
    Pending {
        /// Age of the incomplete frame, measured from its first byte.
        frame_age: Option<Duration>,
        /// True on the first tick of each incomplete frame at which a
        /// whole tick of waiting in `read` passed without a new byte:
        /// the read timed out, or its bytes came only as the tick ran
        /// out. The peer paused mid-frame. A read that brings bytes
        /// sooner is progress, however many reads a long line takes,
        /// and time the caller spends on the previous frame is not
        /// waiting.
        stalled: bool,
    },
    /// The current frame exceeded the configured byte limit without a
    /// terminator. The connection should be refused and closed.
    Oversized {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The peer closed the connection. `torn` is true when buffered
    /// bytes of an unterminated frame were lost with it.
    Eof {
        /// Whether EOF cut a frame mid-assembly.
        torn: bool,
    },
}

/// A bounded, timeout-aware line framer over one [`TcpStream`].
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    max_frame: usize,
    frame_started: Option<Instant>,
    /// The poll tick (`None`: reads block).
    tick: Option<Duration>,
    /// Since when the reader has waited for bytes: the last read that
    /// brought some, or the first read after a frame or body was taken
    /// (`None` until then).
    waiting_since: Option<Instant>,
    /// Whether the frame being assembled has reported its stall.
    stall_reported: bool,
}

/// The poll tick for a connection with the given read/idle timeouts:
/// short enough to observe the tightest configured timeout promptly,
/// never longer than [`POLL_INTERVAL`]. `None` when both timeouts are
/// disabled — the caller can then block indefinitely.
pub fn poll_interval(read: Option<Duration>, idle: Option<Duration>) -> Option<Duration> {
    let tightest = match (read, idle) {
        (Some(r), Some(i)) => r.min(i),
        (Some(t), None) | (None, Some(t)) => t,
        (None, None) => return None,
    };
    Some((tightest / 4).clamp(Duration::from_millis(10), POLL_INTERVAL))
}

impl LineReader {
    /// Wraps `stream`, polling at `poll` (or blocking when `None`).
    /// Frames longer than `max_frame` bytes are refused.
    pub fn new(
        stream: TcpStream,
        poll: Option<Duration>,
        max_frame: usize,
    ) -> io::Result<LineReader> {
        stream.set_read_timeout(poll)?;
        Ok(LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            max_frame: max_frame.max(1),
            frame_started: None,
            tick: poll,
            waiting_since: None,
            stall_reported: false,
        })
    }

    /// Extracts the next buffered line, if a terminator has arrived.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let newline = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| self.scanned + i);
        let Some(newline) = newline else {
            self.scanned = self.buf.len();
            return None;
        };
        let mut line = self.take_front(newline + 1);
        line.pop(); // the \n
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(line)
    }

    /// Takes the first `len` buffered bytes. When they are the whole
    /// buffer it is handed over as is; otherwise only the bytes after
    /// them are copied out. Whatever remains arrived in the same read,
    /// so its assembly clock starts now; the wait clock restarts at the
    /// next read, after the caller is done with what it took.
    fn take_front(&mut self, len: usize) -> Vec<u8> {
        let front = if len == self.buf.len() {
            std::mem::take(&mut self.buf)
        } else {
            let rest = self.buf.split_off(len);
            std::mem::replace(&mut self.buf, rest)
        };
        self.scanned = 0;
        self.frame_started = (!self.buf.is_empty()).then(Instant::now);
        self.waiting_since = None;
        self.stall_reported = false;
        front
    }

    fn frame_age(&self) -> Option<Duration> {
        self.frame_started.map(|started| started.elapsed())
    }

    /// The cap, applied to *complete* frames too — a huge line that
    /// arrives with its terminator in one packet is just as refusable
    /// as one assembled byte by byte.
    fn frame_or_refuse(&self, line: Vec<u8>) -> Poll {
        if line.len() > self.max_frame {
            Poll::Oversized {
                limit: self.max_frame,
            }
        } else {
            Poll::Frame(line)
        }
    }

    /// One poll step: a complete frame, a pending observation, an
    /// oversized refusal, or EOF. `Err` is a genuine socket error.
    pub fn poll_line(&mut self) -> io::Result<Poll> {
        if let Some(line) = self.take_line() {
            return Ok(self.frame_or_refuse(line));
        }
        if self.buf.len() > self.max_frame {
            return Ok(Poll::Oversized {
                limit: self.max_frame,
            });
        }
        let waiting_since = *self.waiting_since.get_or_insert_with(Instant::now);
        let mut chunk = [0u8; 8 << 10];
        let read = self.stream.read(&mut chunk);
        let stalled = !self.buf.is_empty()
            && !self.stall_reported
            && self
                .tick
                .is_some_and(|tick| waiting_since.elapsed() >= tick);
        self.stall_reported |= stalled;
        match read {
            Ok(0) => Ok(Poll::Eof {
                torn: !self.buf.is_empty(),
            }),
            Ok(n) => {
                self.waiting_since = Some(Instant::now());
                if self.buf.is_empty() {
                    self.frame_started = Some(Instant::now());
                }
                self.buf.extend_from_slice(&chunk[..n]);
                if let Some(line) = self.take_line() {
                    return Ok(self.frame_or_refuse(line));
                }
                if self.buf.len() > self.max_frame {
                    return Ok(Poll::Oversized {
                        limit: self.max_frame,
                    });
                }
                Ok(Poll::Pending {
                    frame_age: self.frame_age(),
                    stalled,
                })
            }
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Poll::Pending {
                    frame_age: self.frame_age(),
                    stalled,
                })
            }
            Err(error) => Err(error),
        }
    }

    /// Reads exactly `len` raw bytes (an HTTP body — not line framed,
    /// not subject to the frame cap), consuming buffered bytes first.
    /// `deadline` bounds the whole read; `None` waits indefinitely.
    pub fn read_exact_timed(
        &mut self,
        len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, BodyError> {
        let mut body = self.take_front(len.min(self.buf.len()));
        // A declared length is only a claim: reserve at most 1 MiB of it
        // before the bytes arrive.
        body.reserve(len.min(1 << 20).saturating_sub(body.len()));
        let mut chunk = [0u8; 8 << 10];
        while body.len() < len {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(BodyError::TimedOut);
            }
            let want = (len - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Err(BodyError::Eof),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(error) => return Err(BodyError::Io(error)),
            }
        }
        Ok(body)
    }

    /// Lingering close: reads and discards until EOF or `limit`
    /// elapses. Closing a socket with unread bytes in its receive
    /// buffer sends a reset, which can destroy a refusal already in
    /// flight to the peer — draining first lets the 4xx arrive.
    pub fn drain_for(&mut self, limit: Duration) {
        // A reader polling blocking-forever (no timeouts configured)
        // must still honor the drain deadline.
        let _ = self.stream.set_read_timeout(Some(POLL_INTERVAL));
        let deadline = Instant::now() + limit;
        let mut chunk = [0u8; 8 << 10];
        while Instant::now() < deadline {
            match self.stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(_) => {}
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return,
            }
        }
    }
}

/// Why [`LineReader::read_exact_timed`] could not deliver the body.
#[derive(Debug)]
pub enum BodyError {
    /// The peer closed before the declared length arrived.
    Eof,
    /// The deadline passed with the body still incomplete.
    TimedOut,
    /// A genuine socket error.
    Io(io::Error),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A connected socket pair over loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn reader(server: TcpStream, max: usize) -> LineReader {
        LineReader::new(server, Some(Duration::from_millis(20)), max).unwrap()
    }

    #[test]
    fn frames_split_on_newlines_and_strip_crlf() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"alpha\nbeta\r\ngam").unwrap();
        client.flush().unwrap();
        let mut frames = Vec::new();
        for _ in 0..20 {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => frames.push(f),
                Poll::Pending { .. } => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(frames, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        // The partial third frame ages while incomplete.
        std::thread::sleep(Duration::from_millis(30));
        match reader.poll_line().unwrap() {
            Poll::Pending {
                frame_age: Some(age),
                ..
            } => {
                assert!(age >= Duration::from_millis(20), "{age:?}")
            }
            other => panic!("expected aged pending, got {other:?}"),
        }
        client.write_all(b"ma\n").unwrap();
        loop {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => {
                    assert_eq!(f, b"gamma");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// Polls `n` times without a frame arriving; how many ticks were
    /// reported as stalls.
    fn stalls_in(reader: &mut LineReader, n: usize) -> usize {
        (0..n)
            .filter(|_| match reader.poll_line().unwrap() {
                Poll::Pending { stalled, .. } => stalled,
                other => panic!("expected pending, got {other:?}"),
            })
            .count()
    }

    /// Polls until a frame arrives, asserting no tick on the way stalls.
    fn next_frame(reader: &mut LineReader) -> Vec<u8> {
        loop {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => return f,
                Poll::Pending { stalled, .. } => assert!(!stalled, "no tick here is a stall"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_stall_is_reported_once_per_frame() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"gam").unwrap();
        // The read that brings the first bytes is not a stall; the ticks
        // that time out after it are, and the frame reports one.
        assert_eq!(stalls_in(&mut reader, 4), 1);
        client.write_all(b"ma\n").unwrap();
        assert_eq!(next_frame(&mut reader), b"gamma");
        client.write_all(b"de").unwrap();
        assert_eq!(
            stalls_in(&mut reader, 4),
            1,
            "the next frame reports its own"
        );
    }

    #[test]
    fn time_spent_on_a_taken_frame_is_not_a_stall() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"a\nbb").unwrap();
        assert_eq!(next_frame(&mut reader), b"a");
        // The caller works on `a` for longer than a tick while the start
        // of the next frame sits in the buffer; more of it is already
        // sent when the reader is polled again.
        std::thread::sleep(Duration::from_millis(50));
        client.write_all(b"b").unwrap();
        assert_eq!(stalls_in(&mut reader, 1), 0);
        client.write_all(b"\n").unwrap();
        assert_eq!(next_frame(&mut reader), b"bbb");
    }

    #[test]
    fn a_multi_megabyte_frame_and_the_next_arrive_intact_in_one_write() {
        let (mut client, server) = pair();
        // A poll tick far longer than loopback needs to deliver the line:
        // no tick should pass without a byte, so none is a stall.
        let mut reader = LineReader::new(server, Some(Duration::from_secs(2)), 16 << 20).unwrap();
        let big: Vec<u8> = (0..3u32 << 20).map(|i| b'a' + (i % 26) as u8).collect();
        let mut bytes = big.clone();
        bytes.extend_from_slice(b"\nsecond\n");
        let writer = std::thread::spawn(move || {
            client.write_all(&bytes).unwrap();
            client
        });
        assert!(
            next_frame(&mut reader) == big,
            "the big frame arrives intact"
        );
        assert_eq!(next_frame(&mut reader), b"second");
        drop(writer.join().unwrap());
    }

    #[test]
    fn a_body_larger_than_one_read_arrives_intact() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 64);
        let body: Vec<u8> = (0..300_123).map(|i| (i % 251) as u8).collect();
        let mut bytes = b"HEAD\n".to_vec();
        bytes.extend_from_slice(&body);
        let writer = std::thread::spawn(move || {
            client.write_all(&bytes).unwrap();
            client
        });
        loop {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => {
                    assert_eq!(f, b"HEAD");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        let got = reader.read_exact_timed(body.len(), None).unwrap();
        assert!(got == body, "the body arrives intact");
        drop(writer.join().unwrap());
    }

    #[test]
    fn idle_pending_reports_no_frame_age() {
        let (_client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        match reader.poll_line().unwrap() {
            Poll::Pending {
                frame_age: None,
                stalled: false,
            } => {}
            other => panic!("expected idle pending, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_refused_not_buffered_forever() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 16);
        client.write_all(&[b'x'; 64]).unwrap();
        client.flush().unwrap();
        loop {
            match reader.poll_line().unwrap() {
                Poll::Oversized { limit } => {
                    assert_eq!(limit, 16);
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn eof_reports_torn_frames() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"cut mid-fra").unwrap();
        drop(client);
        loop {
            match reader.poll_line().unwrap() {
                Poll::Eof { torn } => {
                    assert!(torn, "partial frame lost to EOF must report torn");
                    break;
                }
                Poll::Pending { .. } | Poll::Frame(_) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }

        let (client, server) = pair();
        let mut clean = self::reader(server, 1 << 20);
        drop(client);
        loop {
            match clean.poll_line().unwrap() {
                Poll::Eof { torn } => {
                    assert!(!torn, "clean close is not torn");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bodies_read_exactly_and_time_out() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 64);
        client.write_all(b"HEAD\n0123456789").unwrap();
        client.flush().unwrap();
        loop {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => {
                    assert_eq!(f, b"HEAD");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        let body = reader.read_exact_timed(10, None).unwrap();
        assert_eq!(body, b"0123456789");

        // A body that never completes hits the deadline.
        let deadline = Some(Instant::now() + Duration::from_millis(60));
        match reader.read_exact_timed(5, deadline) {
            Err(BodyError::TimedOut) => {}
            other => panic!("expected timeout, got {other:?}"),
        }

        // A body cut by EOF is reported as such.
        drop(client);
        match reader.read_exact_timed(5, None) {
            Err(BodyError::Eof) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn poll_interval_tracks_the_tightest_timeout() {
        assert_eq!(poll_interval(None, None), None);
        assert_eq!(
            poll_interval(Some(Duration::from_secs(10)), None),
            Some(POLL_INTERVAL)
        );
        assert_eq!(
            poll_interval(
                Some(Duration::from_millis(200)),
                Some(Duration::from_secs(60))
            ),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            poll_interval(Some(Duration::from_millis(8)), None),
            Some(Duration::from_millis(10)),
            "poll never spins tighter than 10ms"
        );
    }
}
