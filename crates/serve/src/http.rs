//! A minimal, hand-rolled HTTP/1.1 front end beside the line-JSON
//! protocol.
//!
//! Three routes, all JSON, all served by the *same* [`Service`], worker
//! pool, admission queue, and tiered cache as the line protocol:
//!
//! - `POST /v1/submit` — body is the same object as a line-protocol
//!   `submit` (`op` optional; the route implies it), admitted through
//!   `Server::admit` like a line submit. The connection blocks until
//!   the submission finishes, then gets the full event stream as
//!   `{"proto":…,"events":[…]}` with the status derived from the final
//!   event. A JSON **array** body is a batch: every element is admitted
//!   as its own submission into the same queue and worker pool
//!   (duplicate designs coalesce on the single-flight tables; an
//!   element beyond the free queue capacity comes back `busy`), and the
//!   response is `{"proto":…,"results":[{"events":[…]},…]}` in element
//!   order. A malformed element errors in its own slot without
//!   disturbing its neighbours.
//! - `GET /v1/stats` — the daemon's counter snapshot.
//! - `GET /v1/healthz` — `200 {"status":"ok"}` while accepting,
//!   `503 {"status":"draining"}` once shutdown begins.
//!
//! The error taxonomy maps onto status codes: `bad_request` and
//! `unsupported_proto` → 400, `invalid_design` → 422, `busy` and
//! `shutting_down` → 503 (with a `Retry-After` header derived from the
//! queue's deterministic `retry_after_ms` hint). Parsing covers exactly
//! what those routes need — request line, headers, `Content-Length`
//! bodies, keep-alive — and nothing else; malformed framing closes the
//! connection after a clean 4xx, never a hang:
//!
//! - request lines and header lines are size-capped, the header count
//!   is bounded, and the whole head is read under the connection read
//!   timeout, so a slowloris dripping one byte per second is evicted
//!   with a 408 no matter which line it drips into;
//! - `Content-Length` must be numeric, and conflicting duplicates are
//!   refused (request-smuggling hygiene); `Transfer-Encoding` is not
//!   supported and is refused outright;
//! - bodies are capped (default 8 MiB, raise with `--http-max-body`
//!   for FPVA-scale documents) and read under a fresh read-timeout
//!   deadline — a truncated body is a 400, a stalled one a 408.

use crate::net::{self, Ending, LineReader, NoFrame, Transport};
use crate::protocol::{self, ErrorKind, Parsed, Request, SubmitBody, WireError, PROTO};
use crate::server::{Server, SharedWriter, Sink};
use serde_json::{Map, Value};
use std::sync::mpsc;
use std::time::Instant;

/// Longest accepted request line or single header line, in bytes.
const MAX_HEAD_LINE: usize = 8 << 10;

/// Most headers accepted on one request.
const MAX_HEADERS: usize = 128;

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    keep_alive: bool,
}

/// A framing refusal: respond with `status` and close the connection.
struct HttpFail {
    status: u16,
    message: String,
}

impl HttpFail {
    fn new(status: u16, message: impl Into<String>) -> HttpFail {
        HttpFail {
            status,
            message: message.into(),
        }
    }

    /// Words the refusal for a `line` of the head that did not come;
    /// `part` names what timed out.
    fn missing(reason: NoFrame, line: &str, part: &str) -> HttpFail {
        match reason {
            NoFrame::Closed => HttpFail::new(400, "connection closed mid-headers"),
            NoFrame::TimedOut(_) => HttpFail::new(408, format!("{part} read timed out")),
            NoFrame::Oversized(limit) => {
                HttpFail::new(400, format!("{line} exceeds {limit} bytes"))
            }
            NoFrame::NotUtf8 => HttpFail::new(400, format!("{line} is not UTF-8")),
        }
    }
}

/// Reads one request from `reader`; `Ok(None)` is a clean end of the
/// connection (it closed or failed between requests, or sat idle past
/// the keep-alive timeout), `Err` is a framing problem answered with
/// its status and a close.
fn read_request(reader: &mut LineReader, max_body: usize) -> Result<Option<HttpRequest>, HttpFail> {
    // Request line: wait across keep-alive idleness, but never let a
    // partial line outlive the read timeout.
    let line = match reader.next_frame(None) {
        Ok(line) => line,
        Err(NoFrame::Closed) => return Ok(None),
        Err(reason) => return Err(HttpFail::missing(reason, "request line", "request line")),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpFail::new(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpFail::new(400, "unsupported HTTP version"));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let (method, path) = (method.to_string(), path.to_string());

    // Headers: the whole head shares one read timeout from here, so a
    // peer dripping bytes *across* header lines is still evicted on time.
    let head_started = Instant::now();
    let mut content_length: Option<usize> = None;
    let mut header_count = 0usize;
    loop {
        let header = reader
            .next_frame(Some(head_started))
            .map_err(|reason| HttpFail::missing(reason, "header line", "request head"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(HttpFail::new(
                400,
                format!("more than {MAX_HEADERS} headers"),
            ));
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(parsed) = value.parse::<usize>() else {
                return Err(HttpFail::new(
                    400,
                    format!("Content-Length {value:?} is not a number"),
                ));
            };
            match content_length {
                Some(previous) if previous != parsed => {
                    return Err(HttpFail::new(400, "conflicting Content-Length headers"));
                }
                _ => content_length = Some(parsed),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpFail::new(400, "Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpFail::new(
            400,
            format!(
                "request body too large ({content_length} > {max_body} byte limit; \
                 raise --http-max-body)"
            ),
        ));
    }
    let body = match reader.read_body(content_length) {
        Ok(body) => body,
        Err(NoFrame::TimedOut(_)) => return Err(HttpFail::new(408, "request body read timed out")),
        Err(_) => {
            return Err(HttpFail::new(
                400,
                "connection closed before the declared Content-Length arrived",
            ))
        }
    };
    let Ok(body) = String::from_utf8(body) else {
        return Err(HttpFail::new(400, "request body is not UTF-8"));
    };
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The status code the closed error taxonomy maps an error event to.
fn status_for(kind: &str) -> u16 {
    match kind {
        "bad_request" | "unsupported_proto" => 400,
        "invalid_design" => 422,
        "busy" | "shutting_down" => 503,
        _ => 500,
    }
}

/// The `retry_after_ms` hint carried by a refusal body, wherever the
/// taxonomy put it: a bare error event, the last event of a stream, or
/// the first refused slot of a batch.
fn retry_after_ms_in(body: &Value) -> Option<u64> {
    let hint = |events: &Value| events.as_array()?.last()?["error"]["retry_after_ms"].as_u64();
    body["error"]["retry_after_ms"]
        .as_u64()
        .or_else(|| hint(&body["events"]))
        .or_else(|| {
            body["results"]
                .as_array()?
                .iter()
                .find_map(|slot| hint(&slot["events"]))
        })
}

/// One whole response: head and body leave in one write, since a second
/// small write would wait on the client's delayed ACK.
fn response(status: u16, body: &Value, keep_alive: bool, retry_after_ms: Option<u64>) -> Vec<u8> {
    let body = serde_json::to_string(body).expect("response serializes");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Retry-After is whole seconds; round the hint up so a client
    // honoring the header never retries before the hinted instant.
    let retry_after = retry_after_ms
        .map(|ms| format!("Retry-After: {}\r\n", ms.div_ceil(1000).max(1)))
        .unwrap_or_default();
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n{body}",
        reason(status),
        body.len(),
    )
    .into_bytes()
}

fn error_body(kind: ErrorKind, message: &str) -> (u16, Value) {
    let error = WireError::new(kind, message);
    (
        status_for(kind.as_str()),
        protocol::error_event(&Value::Null, &error),
    )
}

/// Derives the HTTP status for one submission from its final event.
fn status_of(events: &[Value]) -> u16 {
    match events.last() {
        Some(last) if last["event"].as_str() == Some("done") => 200,
        Some(last) => status_for(last["error"]["kind"].as_str().unwrap_or_default()),
        None => 500,
    }
}

/// Admits one parsed `POST /v1/submit` object (the whole body or one
/// batch element) and returns the channel its events arrive on.
fn admit(server: &Server, request: Request) -> mpsc::Receiver<Value> {
    let Request::Submit(request) = request else {
        unreachable!("the submit route parses only submits");
    };
    let (sink, events) = mpsc::channel();
    server.admit(request, Sink::Channel(sink), None);
    events
}

/// Reads one submission's events to the end and returns its status and
/// `{"events": […]}` body. An admitted job's channel ends when the job
/// drops its sender: after the final event, or early when the worker
/// running it dies, and the truncated stream then maps to 500.
fn reply(events: impl IntoIterator<Item = Value>) -> (u16, Map) {
    let events: Vec<Value> = events.into_iter().collect();
    let mut body = Map::new();
    let status = status_of(&events);
    body.insert("events".to_string(), Value::Array(events));
    (status, body)
}

/// Handles a `POST /v1/submit` body: an object is one submission, an
/// array a batch of them. Blocks until every submission finishes,
/// returning `(status, body)`.
pub(crate) fn handle_submit(server: &Server, body: &str) -> (u16, Value) {
    let parsed = match protocol::parse_body(body) {
        Ok(SubmitBody::Batch(items)) => return handle_submit_batch(server, items),
        Ok(SubmitBody::One(parsed)) => parsed,
        Err(refusal) => Err(refusal),
    };
    match parsed {
        Ok(request) => {
            let (status, mut body) = reply(admit(server, request));
            body.insert("proto".to_string(), Value::from(PROTO));
            (status, Value::Object(body))
        }
        Err((id, error)) => (
            status_for(error.kind.as_str()),
            protocol::error_event(&id, &error),
        ),
    }
}

/// Runs a batch body: every array element is admitted as one
/// submission before any is awaited, so the batch spreads over the
/// worker pool; a malformed element becomes a single-error slot. The
/// overall status is 200 only when every slot finished `done`;
/// otherwise it is the first failing slot's status.
fn handle_submit_batch(server: &Server, items: Vec<Parsed<Request>>) -> (u16, Value) {
    if server.is_shutting_down() {
        return error_body(ErrorKind::ShuttingDown, "daemon is draining");
    }
    let pending: Vec<_> = items
        .into_iter()
        .map(|item| item.map(|request| admit(server, request)))
        .collect();
    let replies: Vec<(u16, Map)> = pending
        .into_iter()
        .map(|slot| match slot {
            Ok(events) => reply(events),
            Err((id, error)) => reply([protocol::error_event(&id, &error)]),
        })
        .collect();
    let status = replies
        .iter()
        .map(|(status, _)| *status)
        .find(|status| *status != 200)
        .unwrap_or(200);
    let results = replies
        .into_iter()
        .map(|(_, body)| Value::Object(body))
        .collect();
    let mut body = Map::new();
    body.insert("proto".to_string(), Value::from(PROTO));
    body.insert("results".to_string(), Value::Array(results));
    (status, Value::Object(body))
}

fn handle_request(server: &Server, request: &HttpRequest) -> (u16, Value) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let mut body = Map::new();
            if server.is_shutting_down() {
                body.insert("status".to_string(), Value::from("draining"));
                (503, Value::Object(body))
            } else {
                body.insert("status".to_string(), Value::from("ok"));
                body.insert("proto".to_string(), Value::from(PROTO));
                (200, Value::Object(body))
            }
        }
        ("GET", "/v1/stats") => (200, server.stats_json()),
        ("POST", "/v1/submit") => handle_submit(server, &request.body),
        ("GET" | "POST", path) => (
            404,
            protocol::error_event(
                &Value::Null,
                &WireError::new(ErrorKind::BadRequest, format!("no such route `{path}`")),
            ),
        ),
        _ => (
            405,
            protocol::error_event(
                &Value::Null,
                &WireError::new(
                    ErrorKind::BadRequest,
                    format!("method `{}` not allowed", request.method),
                ),
            ),
        ),
    }
}

/// HTTP connections: head lines are capped at [`MAX_HEAD_LINE`].
pub(crate) const TRANSPORT: Transport = Transport {
    accepted: "serve.net.http.accepted",
    closed: "serve.net.http.closed",
    max_frame: MAX_HEAD_LINE,
    speak,
};

/// Serves requests on one connection until it closes, fails, sits idle,
/// or asks to close, or until a framing error, whose 4xx it returns as
/// the refusal.
fn speak(server: &Server, reader: &mut LineReader, out: &SharedWriter) -> Ending {
    let max_body = server.service().config().effective_http_max_body();
    loop {
        match read_request(reader, max_body) {
            Ok(Some(request)) => {
                let (status, body) = handle_request(server, &request);
                let retry_after = (status == 503).then(|| retry_after_ms_in(&body)).flatten();
                let reply = response(status, &body, request.keep_alive, retry_after);
                if !net::send(out, &reply) || !request.keep_alive {
                    return Ending::Closed;
                }
            }
            Ok(None) => return Ending::Closed,
            Err(fail) => {
                let (_, body) = error_body(ErrorKind::BadRequest, &fail.message);
                return Ending::Refused(response(fail.status, &body, false, None));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sink_dropped_mid_job_answers_500_instead_of_blocking() {
        // A worker that dies mid-job unwinds and drops its job, and the
        // job's sink with it; the handler must answer with what arrived.
        let (sender, events) = mpsc::channel();
        let sink = Sink::Channel(sender);
        sink.send(protocol::cell_event(
            &Value::from("h"),
            "logic_gate_or",
            "validate",
            "ok",
            None,
            &Default::default(),
            0.0,
            false,
        ));
        drop(sink);
        let (status, body) = reply(events);
        assert_eq!(status, 500);
        let events = body
            .get("events")
            .and_then(Value::as_array)
            .expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["event"], Value::from("cell"));
        assert_eq!(events[0]["id"], Value::from("h"));
    }
}
