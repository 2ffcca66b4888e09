//! The socket core the line-protocol and HTTP transports share: one
//! accept loop, one connection setup, one frame wait that applies the
//! connection's timeouts and counts every outcome, and one
//! refuse-and-linger path. The transports keep only their protocols:
//! they interpret frames and word refusals.
//!
//! `BufRead::read_line` on a plain socket cannot defend against a
//! slowloris peer: it loops over `fill_buf` internally, and a client
//! dripping one byte per second makes steady progress, so a per-read
//! socket timeout never fires and the connection is held open forever.
//! [`LineReader`] instead sets a short poll tick as the socket read
//! timeout and applies the timeouts itself on every tick: a partial
//! frame older than the read timeout, measured from its **first byte**,
//! is a slow-drip eviction; an empty buffer past the idle timeout is a
//! keep-alive eviction; and a connection with requests in flight is
//! never idle.
//!
//! A frame that ends the buffer is handed over whole, so a
//! multi-megabyte request line is not copied again after it arrives.
//!
//! Frames are bounded, so an attacker cannot buy unbounded memory with
//! one endless line, and EOF tells a torn frame from a clean close —
//! the counter behind the chaos smoke's truncate-fault assertions.

use crate::server::{Server, SharedWriter};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a [`LineReader`] wakes to re-examine timeout policy when
/// no bytes are arriving (upper bound; see [`poll_interval`]).
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long a refused connection is drained before it closes.
const LINGER: Duration = Duration::from_millis(500);

/// What every connection of one listener shares.
#[derive(Clone, Copy)]
pub(crate) struct Transport {
    /// Counted once for each connection accepted.
    pub(crate) accepted: &'static str,
    /// Counted once for each connection that ends, however it ends.
    pub(crate) closed: &'static str,
    /// The longest frame a connection reads.
    pub(crate) max_frame: usize,
    /// Speaks the protocol on one connection until it ends.
    pub(crate) speak: fn(&Server, &mut LineReader, &SharedWriter) -> Ending,
}

/// How the protocol on one connection ended.
pub(crate) enum Ending {
    /// The peer left, or the protocol is done with the connection.
    Closed,
    /// The protocol refuses the connection with these bytes.
    Refused(Vec<u8>),
    /// The peer began the daemon's shutdown.
    Shutdown,
}

/// Serves `listener` until the server begins shutdown. Each connection
/// runs on a thread of its own, recording into the service's aggregate.
pub(crate) fn accept_loop(
    server: &Arc<Server>,
    listener: TcpListener,
    transport: Transport,
) -> io::Result<()> {
    let local = listener.local_addr()?;
    for stream in listener.incoming() {
        if server.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            server
                .service()
                .recorded(|| connection(&server, stream, transport, local));
        });
    }
    Ok(())
}

/// One accepted connection of the listener at `local`, counted as
/// accepted and as closed once each on every path, a failed setup
/// included.
fn connection(server: &Server, stream: TcpStream, transport: Transport, local: SocketAddr) {
    parchmint_obs::count(transport.accepted, 1);
    if let Ok((mut reader, out)) = set_up(server, stream, transport.max_frame) {
        match (transport.speak)(server, &mut reader, &out) {
            Ending::Closed => {}
            Ending::Refused(refusal) => reader.refuse(&out, &refusal),
            // The loop waits in `accept`: wake it to see the shutdown.
            Ending::Shutdown => drop(TcpStream::connect(local)),
        }
    }
    parchmint_obs::count(transport.closed, 1);
}

/// Applies the configured socket options to `stream` and splits it
/// into a reader under the configured timeouts and a shared writer.
fn set_up(
    server: &Server,
    stream: TcpStream,
    max_frame: usize,
) -> io::Result<(LineReader, SharedWriter)> {
    let config = server.service().config();
    if let Some(timeout) = config.effective_write_timeout() {
        let _ = stream.set_write_timeout(Some(timeout));
    }
    // Replies are written as they finish; none should wait for the
    // client's delayed ACK of the one before.
    let _ = stream.set_nodelay(true);
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(stream.try_clone()?)));
    let reader = LineReader::new(
        stream,
        config.effective_read_timeout(),
        config.effective_idle_timeout(),
        max_frame,
    )?;
    Ok((reader, out))
}

/// Writes `bytes` to `out` and flushes, reporting whether that worked.
/// A failure is counted, never raised: a vanished client must not take
/// a worker down.
pub(crate) fn send(out: &SharedWriter, bytes: &[u8]) -> bool {
    let mut out = out.lock().expect("writer lock");
    let sent = out.write_all(bytes).is_ok() && out.flush().is_ok();
    if !sent {
        parchmint_obs::count("serve.net.write_errors", 1);
    }
    sent
}

/// Why [`LineReader::next_frame`] or [`LineReader::read_body`] brought
/// nothing. The reader has already counted it under `serve.net.*`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum NoFrame {
    /// The peer closed, cleanly or mid-frame (`frames.torn`), the
    /// socket failed (`io_errors`), or the connection sat idle past the
    /// idle timeout (`idle_closed`).
    Closed,
    /// The frame, head or body was still incomplete this long after it
    /// began, past the read timeout (`read_timeouts`).
    TimedOut(Duration),
    /// The frame exceeded this many bytes (`frames.oversized`).
    Oversized(usize),
    /// The frame is not UTF-8 (`frames.bad`).
    NotUtf8,
}

/// A bounded line framer over one [`TcpStream`] that applies the
/// connection's read and idle timeouts itself.
pub(crate) struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    max_frame: usize,
    frame_started: Option<Instant>,
    read_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    /// The poll tick (`None`: reads block).
    tick: Option<Duration>,
    /// Since when the reader has waited for bytes: the last read that
    /// brought some, or the first read after a frame or body was taken
    /// (`None` until then).
    waiting_since: Option<Instant>,
    /// Whether the frame being assembled has counted its stall.
    stall_counted: bool,
    /// Submissions admitted from this connection and not yet finished.
    in_flight: Arc<AtomicUsize>,
}

/// The poll tick for a connection with the given read/idle timeouts:
/// short enough to observe the tightest configured timeout promptly,
/// never longer than [`POLL_INTERVAL`]. `None` when both timeouts are
/// disabled — the reader can then block indefinitely.
pub(crate) fn poll_interval(read: Option<Duration>, idle: Option<Duration>) -> Option<Duration> {
    let tightest = match (read, idle) {
        (Some(r), Some(i)) => r.min(i),
        (Some(t), None) | (None, Some(t)) => t,
        (None, None) => return None,
    };
    Some((tightest / 4).clamp(Duration::from_millis(10), POLL_INTERVAL))
}

/// Whether a failed read only waited out its tick.
fn waited_out(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

impl LineReader {
    /// Wraps `stream`. A partial frame is evicted once it is older than
    /// `read_timeout`, and an empty connection with nothing in flight
    /// once it has been idle for `idle_timeout` (`None` disables
    /// either). Frames longer than `max_frame` bytes are refused.
    pub(crate) fn new(
        stream: TcpStream,
        read_timeout: Option<Duration>,
        idle_timeout: Option<Duration>,
        max_frame: usize,
    ) -> io::Result<LineReader> {
        let tick = poll_interval(read_timeout, idle_timeout);
        stream.set_read_timeout(tick)?;
        Ok(LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            max_frame: max_frame.max(1),
            frame_started: None,
            read_timeout,
            idle_timeout,
            tick,
            waiting_since: None,
            stall_counted: false,
            in_flight: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The count of submissions admitted from this connection and not
    /// yet finished. While it is above zero the connection is never
    /// idle.
    pub(crate) fn in_flight(&self) -> &Arc<AtomicUsize> {
        &self.in_flight
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
        self.stall_counted = false;
        front
    }

    fn oversized(&self) -> NoFrame {
        parchmint_obs::count("serve.net.frames.oversized", 1);
        NoFrame::Oversized(self.max_frame)
    }

    /// Checks a complete frame. The cap applies to it too: a huge line
    /// that arrives with its terminator in one read is just as
    /// refusable as one assembled byte by byte.
    fn checked(&self, line: Vec<u8>) -> Result<String, NoFrame> {
        if line.len() > self.max_frame {
            return Err(self.oversized());
        }
        String::from_utf8(line).map_err(|_| {
            parchmint_obs::count("serve.net.frames.bad", 1);
            NoFrame::NotUtf8
        })
    }

    /// Waits at most one tick for bytes and appends them. The first wait
    /// of a partial frame to last a whole tick without a new byte counts
    /// the frame's stall: the read timed out, or its bytes came only as
    /// the tick ran out. The peer paused mid-frame. A read that brings
    /// bytes sooner is progress, however many reads a long line takes,
    /// and time the caller spends on the previous frame is not waiting.
    fn fill(&mut self) -> Result<(), NoFrame> {
        let waiting_since = *self.waiting_since.get_or_insert_with(Instant::now);
        let mut chunk = [0u8; 8 << 10];
        let read = self.stream.read(&mut chunk);
        let stalled = !self.buf.is_empty()
            && !self.stall_counted
            && self
                .tick
                .is_some_and(|tick| waiting_since.elapsed() >= tick);
        match read {
            Ok(0) => {
                if !self.buf.is_empty() {
                    parchmint_obs::count("serve.net.frames.torn", 1);
                }
                return Err(NoFrame::Closed);
            }
            Ok(n) => {
                self.waiting_since = Some(Instant::now());
                if self.buf.is_empty() {
                    self.frame_started = Some(Instant::now());
                }
                self.buf.extend_from_slice(&chunk[..n]);
            }
            Err(error) if waited_out(&error) => {}
            Err(_) => {
                parchmint_obs::count("serve.net.io_errors", 1);
                return Err(NoFrame::Closed);
            }
        }
        if stalled {
            self.stall_counted = true;
            parchmint_obs::count("serve.net.frames.stalled", 1);
        }
        Ok(())
    }

    /// Waits for the next line, terminator stripped (`\n`, and `\r\n`).
    ///
    /// `since` is when the message this frame continues began (an HTTP
    /// head after its request line): the message's frames share one
    /// read timeout from then. With `None` the frame starts a message:
    /// its read timeout runs from its first byte, and while nothing is
    /// buffered the idle timeout applies instead.
    pub(crate) fn next_frame(&mut self, since: Option<Instant>) -> Result<String, NoFrame> {
        let mut idle_since = Instant::now();
        let mut waited = false;
        loop {
            if let Some(line) = self.take_line() {
                return self.checked(line);
            }
            if self.buf.len() > self.max_frame {
                return Err(self.oversized());
            }
            // Timeouts apply after a read, never before the first: the
            // start of a frame left over from the last one gets its read.
            if waited {
                match since
                    .or(self.frame_started)
                    .map(|started| started.elapsed())
                {
                    Some(age) if self.read_timeout.is_some_and(|timeout| age >= timeout) => {
                        parchmint_obs::count("serve.net.read_timeouts", 1);
                        return Err(NoFrame::TimedOut(age));
                    }
                    Some(_) => {}
                    // Quiet but waiting on responses: never idle.
                    None if self.in_flight.load(Ordering::Acquire) > 0 => {
                        idle_since = Instant::now();
                    }
                    None if self
                        .idle_timeout
                        .is_some_and(|timeout| idle_since.elapsed() >= timeout) =>
                    {
                        parchmint_obs::count("serve.net.idle_closed", 1);
                        return Err(NoFrame::Closed);
                    }
                    None => {}
                }
            }
            self.fill()?;
            waited = true;
        }
    }

    /// Reads exactly `len` raw bytes (an HTTP body — not line framed,
    /// not subject to the frame cap), consuming buffered bytes first,
    /// under a read timeout of its own.
    pub(crate) fn read_body(&mut self, len: usize) -> Result<Vec<u8>, NoFrame> {
        let started = Instant::now();
        let mut body = self.take_front(len.min(self.buf.len()));
        // A declared length is only a claim: reserve at most 1 MiB of it
        // before the bytes arrive.
        body.reserve(len.min(1 << 20).saturating_sub(body.len()));
        let mut chunk = [0u8; 8 << 10];
        while body.len() < len {
            let age = started.elapsed();
            if self.read_timeout.is_some_and(|timeout| age >= timeout) {
                parchmint_obs::count("serve.net.read_timeouts", 1);
                return Err(NoFrame::TimedOut(age));
            }
            let want = (len - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    parchmint_obs::count("serve.net.frames.torn", 1);
                    return Err(NoFrame::Closed);
                }
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(error) if waited_out(&error) => {}
                Err(_) => {
                    parchmint_obs::count("serve.net.io_errors", 1);
                    return Err(NoFrame::Closed);
                }
            }
        }
        Ok(body)
    }

    /// Sends `refusal` to `out` and closes lingering. Closing a socket
    /// with unread bytes in its receive buffer sends a reset, which can
    /// destroy the refusal still in flight to the peer, so reads are
    /// discarded until EOF or [`LINGER`] passes. When no response is
    /// still owed, the write side is shut first and the peer sees the
    /// refusal end at once.
    fn refuse(&mut self, out: &SharedWriter, refusal: &[u8]) {
        send(out, refusal);
        if self.in_flight.load(Ordering::Acquire) == 0 {
            let _ = self.stream.shutdown(Shutdown::Write);
        }
        // A reader that blocks (no timeouts configured) must still
        // honor the drain deadline.
        let _ = self.stream.set_read_timeout(Some(POLL_INTERVAL));
        let deadline = Instant::now() + LINGER;
        let mut chunk = [0u8; 8 << 10];
        while Instant::now() < deadline {
            match self.stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(_) => {}
                Err(error) if waited_out(&error) => {}
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting;
    use std::thread;

    /// A connected socket pair over loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// A reader that polls every 20 ms: the 80 ms idle timeout sets the
    /// tick, and the 10 s read timeout never fires here.
    fn reader(server: TcpStream, max: usize) -> LineReader {
        LineReader::new(
            server,
            Some(Duration::from_secs(10)),
            Some(Duration::from_millis(80)),
            max,
        )
        .unwrap()
    }

    /// Writes each part after a pause of `pause`, on a thread of its own.
    fn drip(mut client: TcpStream, pause: Duration, parts: &[&str]) -> thread::JoinHandle<()> {
        let parts: Vec<String> = parts.iter().map(|part| part.to_string()).collect();
        thread::spawn(move || {
            for part in parts {
                thread::sleep(pause);
                client.write_all(part.as_bytes()).unwrap();
            }
        })
    }

    #[test]
    fn frames_split_on_newlines_and_strip_crlf() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"alpha\nbeta\r\ngam").unwrap();
        assert_eq!(reader.next_frame(None).unwrap(), "alpha");
        assert_eq!(reader.next_frame(None).unwrap(), "beta");
        client.write_all(b"ma\n").unwrap();
        assert_eq!(reader.next_frame(None).unwrap(), "gamma");
    }

    #[test]
    fn a_stall_is_reported_once_per_frame() {
        counting(|count| {
            let (mut client, server) = pair();
            let mut reader = reader(server, 1 << 20);
            // The read that brings the first bytes is not a stall; the
            // ticks that time out after it are, and the frame counts one.
            client.write_all(b"gam").unwrap();
            let writer = drip(client, Duration::from_millis(100), &["ma\nde", "lta\n"]);
            assert_eq!(reader.next_frame(None).unwrap(), "gamma");
            assert_eq!(count("serve.net.frames.stalled"), 1);
            assert_eq!(reader.next_frame(None).unwrap(), "delta");
            assert_eq!(
                count("serve.net.frames.stalled"),
                2,
                "the next frame counts its own"
            );
            writer.join().unwrap();
        });
    }

    #[test]
    fn time_spent_on_a_taken_frame_is_not_a_stall() {
        counting(|count| {
            let (mut client, server) = pair();
            let mut reader = reader(server, 1 << 20);
            client.write_all(b"a\nbb").unwrap();
            assert_eq!(reader.next_frame(None).unwrap(), "a");
            // The caller works on `a` for longer than a tick while the
            // start of the next frame sits in the buffer; the rest of it
            // is already sent when the reader waits again.
            thread::sleep(Duration::from_millis(50));
            client.write_all(b"b\n").unwrap();
            assert_eq!(reader.next_frame(None).unwrap(), "bbb");
            assert_eq!(count("serve.net.frames.stalled"), 0);
        });
    }

    #[test]
    fn a_multi_megabyte_frame_and_the_next_arrive_intact_in_one_write() {
        counting(|count| {
            let (mut client, server) = pair();
            let mut reader =
                LineReader::new(server, Some(Duration::from_secs(60)), None, 16 << 20).unwrap();
            // A tick far longer than loopback needs between two reads of
            // the line: none should pass without a byte, so none is a
            // stall, even on a loaded machine.
            reader.tick = Some(Duration::from_secs(2));
            reader.stream.set_read_timeout(reader.tick).unwrap();
            let big: Vec<u8> = (0..3u32 << 20).map(|i| b'a' + (i % 26) as u8).collect();
            let mut bytes = big.clone();
            bytes.extend_from_slice(b"\nsecond\n");
            let writer = thread::spawn(move || {
                client.write_all(&bytes).unwrap();
                client
            });
            assert!(
                reader.next_frame(None).unwrap().as_bytes() == big,
                "the big frame arrives intact"
            );
            assert_eq!(reader.next_frame(None).unwrap(), "second");
            assert_eq!(count("serve.net.frames.stalled"), 0);
            drop(writer.join().unwrap());
        });
    }

    #[test]
    fn a_body_larger_than_one_read_arrives_intact() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 64);
        let body: Vec<u8> = (0..300_123).map(|i| (i % 251) as u8).collect();
        let mut bytes = b"HEAD\n".to_vec();
        bytes.extend_from_slice(&body);
        let writer = thread::spawn(move || {
            client.write_all(&bytes).unwrap();
            client
        });
        assert_eq!(reader.next_frame(None).unwrap(), "HEAD");
        let got = reader.read_body(body.len()).unwrap();
        assert!(got == body, "the body arrives intact");
        drop(writer.join().unwrap());
    }

    #[test]
    fn a_dripped_frame_times_out_from_its_first_byte() {
        counting(|count| {
            let (mut client, server) = pair();
            let timeout = Duration::from_millis(200);
            let mut reader = LineReader::new(server, Some(timeout), None, 1 << 20).unwrap();
            // One byte every 20 ms: steady progress that never ends the
            // frame.
            client.write_all(b"d").unwrap();
            let dripper = drip(client, Duration::from_millis(20), &["r"; 20]);
            match reader.next_frame(None) {
                Err(NoFrame::TimedOut(age)) => assert!(age >= timeout, "{age:?}"),
                other => panic!("expected a timeout, got {other:?}"),
            }
            assert_eq!(count("serve.net.read_timeouts"), 1);
            dripper.join().unwrap();
        });
    }

    /// An idle wait has no frame age, so the idle timeout closes the
    /// connection, never the read timeout, and it is no stall.
    #[test]
    fn idle_pending_reports_no_frame_age() {
        counting(|count| {
            let (_client, server) = pair();
            let idle = Duration::from_millis(150);
            let mut reader =
                LineReader::new(server, Some(Duration::from_millis(40)), Some(idle), 64).unwrap();
            let started = Instant::now();
            assert_eq!(reader.next_frame(None), Err(NoFrame::Closed));
            assert!(started.elapsed() >= idle, "{:?}", started.elapsed());
            assert_eq!(count("serve.net.idle_closed"), 1);
            assert_eq!(count("serve.net.read_timeouts"), 0);
            assert_eq!(count("serve.net.frames.stalled"), 0);
        });
    }

    #[test]
    fn a_connection_with_requests_in_flight_is_never_idle() {
        counting(|count| {
            let (client, server) = pair();
            let mut reader = reader(server, 64);
            reader.in_flight().fetch_add(1, Ordering::AcqRel);
            // Silent for several idle timeouts, then a frame: neither
            // idle nor a stall.
            let writer = drip(client, Duration::from_millis(300), &["late\n"]);
            assert_eq!(reader.next_frame(None).unwrap(), "late");
            assert_eq!(count("serve.net.idle_closed"), 0);
            assert_eq!(count("serve.net.frames.stalled"), 0);
            writer.join().unwrap();
        });
    }

    #[test]
    fn a_head_shares_one_read_timeout_and_is_never_idle() {
        counting(|count| {
            let (mut client, server) = pair();
            let timeout = Duration::from_millis(300);
            let mut reader =
                LineReader::new(server, Some(timeout), Some(Duration::from_millis(60)), 64)
                    .unwrap();
            let since = Instant::now();
            client.write_all(b"X-A: 1\r\n").unwrap();
            assert_eq!(reader.next_frame(Some(since)).unwrap(), "X-A: 1");
            match reader.next_frame(Some(since)) {
                Err(NoFrame::TimedOut(age)) => assert!(age >= timeout, "{age:?}"),
                other => panic!("expected a timeout, got {other:?}"),
            }
            assert!(since.elapsed() >= timeout);
            assert_eq!(count("serve.net.read_timeouts"), 1);
            assert_eq!(count("serve.net.idle_closed"), 0);
        });
    }

    #[test]
    fn oversized_frames_are_refused_not_buffered_forever() {
        counting(|count| {
            let (mut client, server) = pair();
            let mut reader = reader(server, 16);
            client.write_all(&[b'x'; 64]).unwrap();
            assert_eq!(reader.next_frame(None), Err(NoFrame::Oversized(16)));
            assert_eq!(count("serve.net.frames.oversized"), 1);
        });
    }

    #[test]
    fn eof_reports_torn_frames() {
        counting(|count| {
            let (mut client, server) = pair();
            let mut reader = reader(server, 1 << 20);
            client.write_all(b"whole\ncut mid-fra").unwrap();
            drop(client);
            assert_eq!(reader.next_frame(None).unwrap(), "whole");
            assert_eq!(reader.next_frame(None), Err(NoFrame::Closed));
            assert_eq!(
                count("serve.net.frames.torn"),
                1,
                "partial frame lost to EOF"
            );

            let (client, server) = pair();
            let mut clean = self::reader(server, 1 << 20);
            drop(client);
            assert_eq!(clean.next_frame(None), Err(NoFrame::Closed));
            assert_eq!(count("serve.net.frames.torn"), 1, "clean close is not torn");
        });
    }

    #[test]
    fn bodies_read_exactly_and_time_out() {
        counting(|count| {
            let (mut client, server) = pair();
            let timeout = Duration::from_millis(60);
            let mut reader = LineReader::new(server, Some(timeout), None, 64).unwrap();
            client.write_all(b"HEAD\n0123456789").unwrap();
            assert_eq!(reader.next_frame(None).unwrap(), "HEAD");
            assert_eq!(reader.read_body(10).unwrap(), b"0123456789");

            // A body that never completes times out.
            match reader.read_body(5) {
                Err(NoFrame::TimedOut(age)) => assert!(age >= timeout, "{age:?}"),
                other => panic!("expected a timeout, got {other:?}"),
            }
            assert_eq!(count("serve.net.read_timeouts"), 1);

            // A body cut by EOF is torn.
            drop(client);
            assert_eq!(reader.read_body(5), Err(NoFrame::Closed));
            assert_eq!(count("serve.net.frames.torn"), 1);
        });
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
