//! The line-delimited JSON wire protocol.
//!
//! Every request and every response is exactly one JSON object per
//! line. Requests carry an `op` (`submit`, `stats`, `ping`,
//! `shutdown`) and an optional client-chosen `id` that is echoed
//! verbatim on every response belonging to that request, so a client
//! may pipeline many submissions over one connection and demultiplex
//! the interleaved replies.
//!
//! A submission names its design one of three ways — inline ParchMint
//! JSON (`design`), MINT source text (`mint`), or a registry benchmark
//! name (`benchmark`) — and may restrict the stage matrix (`stages`)
//! or bound execution (`deadline_ms`, `fuel`).
//!
//! Responses are events: one `cell` per executed stage (streamed as it
//! finishes, in stage order), a final `done` with the cache key and
//! status counts, or an `error` carrying a machine-readable `kind`
//! from the closed taxonomy in [`ErrorKind`].
//!
//! The envelope is versioned: requests may carry a
//! `proto: "parchmint-serve/1"` field (absent means v1, for
//! compatibility with pre-versioning clients), every response carries
//! the daemon's negotiated version, and a request naming an unknown
//! major is refused with the `unsupported_proto` error kind before any
//! other field is interpreted.

use crate::hash;
use parchmint_harness::{write_outcome, CellStatus};
use serde_json::{Event, EventReader, Map, Value};

/// The wire-protocol version this daemon speaks.
pub const PROTO: &str = "parchmint-serve/1";

/// The sole protocol major this daemon accepts.
pub const PROTO_MAJOR: u64 = 1;

/// Where a submitted design comes from.
#[derive(Debug, Clone)]
pub enum DesignSource {
    /// Inline ParchMint JSON, as its canonical text (see [`crate::hash`]):
    /// the request parser writes it straight from the request bytes.
    Json(String),
    /// MINT source text, converted on arrival unless the cache's MINT
    /// index already holds this exact text.
    Mint(String),
    /// A benchmark name resolved against the built-in registry.
    Benchmark(String),
}

/// One parsed `submit` request.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Client-chosen correlation id, echoed on every response.
    pub id: Value,
    /// The design to run.
    pub source: DesignSource,
    /// Stage selectors (exact names, or the `pnr` family shorthand);
    /// `None` runs the full standard matrix.
    pub stages: Option<Vec<String>>,
    /// Per-attempt wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-attempt fuel budget in meter ticks.
    pub fuel: Option<u64>,
}

/// Every request the daemon understands.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a design through the pipeline.
    Submit(Box<SubmitRequest>),
    /// Report cache / queue / observability counters.
    Stats {
        /// Correlation id, echoed on the response.
        id: Value,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id, echoed on the response.
        id: Value,
    },
    /// Stop accepting work, drain, and exit.
    Shutdown {
        /// Correlation id, echoed on the acknowledgement.
        id: Value,
    },
}

/// The closed error taxonomy. Everything a client can get back is one
/// of these five kinds; the `message` is human-readable detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid request (bad JSON, unknown op, wrong
    /// field types, missing design source).
    BadRequest,
    /// The request named a protocol version this daemon does not speak.
    UnsupportedProto,
    /// The request was well-formed but the design was not: unparseable
    /// ParchMint JSON, invalid MINT, or an unknown benchmark name.
    InvalidDesign,
    /// The admission queue is full — back off and resubmit.
    Busy,
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
}

impl ErrorKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnsupportedProto => "unsupported_proto",
            ErrorKind::InvalidDesign => "invalid_design",
            ErrorKind::Busy => "busy",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }
}

/// A protocol-level refusal: kind plus human-readable message.
#[derive(Debug, Clone)]
pub struct WireError {
    /// Which taxonomy bucket.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Deterministic backoff hint for retryable refusals (`busy`):
    /// how long the client should wait before resubmitting, derived
    /// from queue depth. Absent for non-retryable kinds.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A new error of `kind`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> WireError {
        WireError {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a retry hint (milliseconds) to a retryable refusal.
    pub fn with_retry_after_ms(mut self, ms: u64) -> WireError {
        self.retry_after_ms = Some(ms);
        self
    }
}

fn bad(message: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::BadRequest, message)
}

fn opt_u64(object: &Map, key: &str) -> Result<Option<u64>, WireError> {
    match object.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_string_list(object: &Map, key: &str) -> Result<Option<Vec<String>>, WireError> {
    match object.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("`{key}` must be an array of strings")))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(bad(format!("`{key}` must be an array of strings"))),
    }
}

/// Checks the envelope's `proto` field. Absence (or an explicit null)
/// negotiates v1 for compatibility with pre-versioning clients; a
/// present field must name a `parchmint-serve/<major>` this daemon
/// speaks or the request is refused before any other field matters.
fn check_proto(object: &Map) -> Result<(), WireError> {
    let unsupported = |message: String| WireError::new(ErrorKind::UnsupportedProto, message);
    match object.get("proto") {
        None | Some(Value::Null) => Ok(()),
        Some(Value::String(proto)) => {
            let major = proto
                .strip_prefix("parchmint-serve/")
                .and_then(|rest| rest.split('.').next())
                .and_then(|major| major.parse::<u64>().ok())
                .ok_or_else(|| {
                    unsupported(format!(
                        "unrecognized protocol `{proto}` (this daemon speaks {PROTO})"
                    ))
                })?;
            if major == PROTO_MAJOR {
                Ok(())
            } else {
                Err(unsupported(format!(
                    "unsupported protocol major in `{proto}` (this daemon speaks {PROTO})"
                )))
            }
        }
        Some(_) => Err(unsupported(format!(
            "`proto` must be a string (this daemon speaks {PROTO})"
        ))),
    }
}

/// A parse result paired, on failure, with whatever `id` the request
/// carried, so the error response still correlates.
pub(crate) type Parsed<T> = Result<T, (Value, WireError)>;

/// Reads `text` as one JSON document whose root `read` consumes, given
/// the root's first event. The whole document is read before its
/// members are interpreted, so a syntax error anywhere — trailing
/// characters included — wins over what `read` decided: a `bad_request`
/// naming `what`, with no id.
fn read_document<'a, T>(
    text: &'a str,
    what: &str,
    read: impl FnOnce(&mut EventReader<'a>, Event<'a>) -> serde_json::Result<T>,
) -> Parsed<T> {
    let mut reader = EventReader::new(text);
    let document = reader.next_event().and_then(|first| {
        let first = first.expect("a document root is a value or an error");
        let read = read(&mut reader, first)?;
        reader.next_event().map(|_| read)
    });
    document.map_err(|e| (Value::Null, bad(format!("{what} is not valid JSON: {e}"))))
}

/// Consumes the rest of a value whose first event was `first`.
fn skip_rest(reader: &mut EventReader<'_>, first: &Event<'_>) -> serde_json::Result<()> {
    let mut depth = usize::from(matches!(first, Event::StartArray | Event::StartObject));
    while depth > 0 {
        match reader.next_event()? {
            Some(Event::StartArray | Event::StartObject) => depth += 1,
            Some(Event::EndArray | Event::EndObject) => depth -= 1,
            Some(_) => {}
            None => break,
        }
    }
    Ok(())
}

/// The request parser every transport shares. Reads one request whose
/// first event is `first`: an object streams into its members (`design`
/// as canonical text, the rest as small values), anything else is
/// consumed and refused. `route_op` is the op a transport's route
/// implies (HTTP `POST /v1/submit` passes `Some("submit")`): it stands
/// in for a missing `op`, and a present `op` must match it. The line
/// protocol passes `None`, so `op` is required.
fn read_request<'a>(
    reader: &mut EventReader<'a>,
    first: Event<'a>,
    route_op: Option<&str>,
) -> serde_json::Result<Parsed<Request>> {
    if first != Event::StartObject {
        skip_rest(reader, &first)?;
        let what = route_op.unwrap_or("request");
        return Ok(Err((
            Value::Null,
            bad(format!("{what} must be a JSON object")),
        )));
    }
    let (object, design) = hash::read_members(reader)?;
    let id = object.get("id").cloned().unwrap_or(Value::Null);
    Ok(parse_object(object, design, route_op, id.clone()).map_err(|error| (id, error)))
}

/// Parses one request line. On failure the error comes back paired
/// with whatever `id` could be recovered from the line, so the error
/// response still correlates.
pub fn parse_request(line: &str) -> Result<Request, (Value, WireError)> {
    read_document(line, "request", |reader, first| {
        read_request(reader, first, None)
    })?
}

/// Parses an HTTP `POST /v1/submit` body: the same object as a
/// line-protocol submit, with `op` optional (it is implied by the
/// route, but `"submit"` is accepted).
pub fn parse_submit_body(body: &str) -> Result<Box<SubmitRequest>, (Value, WireError)> {
    let request = read_document(body, "body", |reader, first| {
        read_request(reader, first, Some("submit"))
    })??;
    match request {
        Request::Submit(request) => Ok(request),
        _ => unreachable!("the submit route parses only submits"),
    }
}

/// A parsed `POST /v1/submit` body.
pub(crate) enum SubmitBody {
    /// An object: one submission.
    One(Parsed<Request>),
    /// An array: a batch, each element parsed as one submission.
    Batch(Vec<Parsed<Request>>),
}

/// Parses a whole `POST /v1/submit` body — every batch element included
/// — before anything is admitted.
pub(crate) fn parse_body(body: &str) -> Parsed<SubmitBody> {
    read_document(body, "body", |reader, first| {
        if first != Event::StartArray {
            return read_request(reader, first, Some("submit")).map(SubmitBody::One);
        }
        let mut items = Vec::new();
        while let Some(event) = reader.next_event()? {
            if event == Event::EndArray {
                break;
            }
            items.push(read_request(reader, event, Some("submit"))?);
        }
        Ok(SubmitBody::Batch(items))
    })
}

fn parse_object(
    object: Map,
    design: Option<String>,
    route_op: Option<&str>,
    id: Value,
) -> Result<Request, WireError> {
    check_proto(&object)?;
    let op = object
        .get("op")
        .and_then(Value::as_str)
        .or(route_op)
        .ok_or_else(|| bad("missing string field `op`"))?;
    match (op, route_op) {
        (op, Some(route)) if op != route => Err(bad(format!("`op` must be `{route}`, not `{op}`"))),
        ("submit", _) => Ok(Request::Submit(parse_submit(object, design, id)?)),
        ("stats", _) => Ok(Request::Stats { id }),
        ("ping", _) => Ok(Request::Ping { id }),
        ("shutdown", _) => Ok(Request::Shutdown { id }),
        (other, _) => Err(bad(format!("unknown op `{other}`"))),
    }
}

fn parse_submit(
    mut object: Map,
    design: Option<String>,
    id: Value,
) -> Result<Box<SubmitRequest>, WireError> {
    let source = match (design, object.remove("mint"), object.remove("benchmark")) {
        (Some(design), None, None) => DesignSource::Json(design),
        (None, Some(Value::String(text)), None) => DesignSource::Mint(text),
        (None, None, Some(Value::String(name))) => DesignSource::Benchmark(name),
        (None, Some(_), None) | (None, None, Some(_)) => {
            return Err(bad("`mint` and `benchmark` must be strings"))
        }
        (None, None, None) => {
            return Err(bad(
                "submit needs exactly one of `design`, `mint`, `benchmark`",
            ))
        }
        _ => {
            return Err(bad(
                "submit takes exactly one of `design`, `mint`, `benchmark`",
            ))
        }
    };
    Ok(Box::new(SubmitRequest {
        id,
        source,
        stages: opt_string_list(&object, "stages")?,
        deadline_ms: opt_u64(&object, "deadline_ms")?,
        fuel: opt_u64(&object, "fuel")?,
    }))
}

/// Serializes a response value as one wire line (compact, `\n`-terminated).
pub fn to_line(value: &Value) -> String {
    let mut line = serde_json::to_string(value).expect("response serialization is infallible");
    line.push('\n');
    line
}

fn event(id: &Value, name: &str) -> Map {
    let mut object = Map::new();
    object.insert("id".to_string(), id.clone());
    object.insert("event".to_string(), Value::from(name));
    object.insert("proto".to_string(), Value::from(PROTO));
    object
}

/// An `error` event for request `id`.
pub fn error_event(id: &Value, error: &WireError) -> Value {
    let mut object = event(id, "error");
    let mut body = Map::new();
    body.insert("kind".to_string(), Value::from(error.kind.as_str()));
    body.insert("message".to_string(), Value::from(error.message.clone()));
    if let Some(ms) = error.retry_after_ms {
        body.insert("retry_after_ms".to_string(), Value::from(ms));
    }
    object.insert("error".to_string(), Value::Object(body));
    Value::Object(object)
}

/// A `cell` event: one stage finished (or was served from cache). The
/// `cell` member has a suite report cell's shape, written by the same
/// [`write_outcome`].
///
/// # Panics
///
/// If `status` is not a [`CellStatus`] name.
#[allow(clippy::too_many_arguments)] // mirrors the cell schema field-for-field
pub fn cell_event(
    id: &Value,
    benchmark: &str,
    stage: &str,
    status: &str,
    detail: Option<&str>,
    metrics: &std::collections::BTreeMap<String, Value>,
    wall_ms: f64,
    cached: bool,
) -> Value {
    let status =
        CellStatus::parse(status).unwrap_or_else(|| panic!("`{status}` is not a cell status"));
    let mut cell = write_outcome(status, detail, metrics);
    cell.insert("benchmark".to_string(), Value::from(benchmark));
    cell.insert("stage".to_string(), Value::from(stage));
    let mut object = event(id, "cell");
    object.insert("cell".to_string(), Value::Object(cell));
    object.insert("wall_ms".to_string(), Value::from(wall_ms));
    object.insert("cached".to_string(), Value::from(cached));
    Value::Object(object)
}

/// The final `done` event for one submission.
pub fn done_event(
    id: &Value,
    design: &str,
    key_hex: &str,
    cached_compile: bool,
    compile_ms: Option<f64>,
    cells: usize,
) -> Value {
    let mut object = event(id, "done");
    object.insert("design".to_string(), Value::from(design));
    object.insert("key".to_string(), Value::from(key_hex));
    object.insert("cached".to_string(), Value::from(cached_compile));
    match compile_ms {
        Some(ms) => object.insert("compile_ms".to_string(), Value::from(ms)),
        None => object.insert("compile_ms".to_string(), Value::Null),
    };
    object.insert("cells".to_string(), Value::from(cells));
    Value::Object(object)
}

/// A `pong` event.
pub fn pong_event(id: &Value) -> Value {
    Value::Object(event(id, "pong"))
}

/// A `stats` event wrapping the daemon's counter snapshot.
pub fn stats_event(id: &Value, stats: Value) -> Value {
    let mut object = event(id, "stats");
    object.insert("stats".to_string(), stats);
    Value::Object(object)
}

/// The acknowledgement sent before the daemon drains and exits.
pub fn shutting_down_event(id: &Value) -> Value {
    Value::Object(event(id, "shutting_down"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_design_sources() {
        let json = parse_request(r#"{"op":"submit","id":1,"design":{"name":"d"}}"#).unwrap();
        assert!(matches!(
            json,
            Request::Submit(ref r) if matches!(r.source, DesignSource::Json(_))
        ));
        let mint = parse_request(r#"{"op":"submit","mint":"DEVICE d"}"#).unwrap();
        assert!(matches!(
            mint,
            Request::Submit(ref r) if matches!(r.source, DesignSource::Mint(_))
        ));
        let bench = parse_request(r#"{"op":"submit","benchmark":"logic_gate_or"}"#).unwrap();
        assert!(matches!(
            bench,
            Request::Submit(ref r) if matches!(r.source, DesignSource::Benchmark(_))
        ));
    }

    #[test]
    fn inline_designs_arrive_as_canonical_text() {
        let line = r#"{"op":"submit","design":{"name":"d","layers":[ ],"a":1.50,"name":"e"}}"#;
        let Request::Submit(request) = parse_request(line).unwrap() else {
            panic!("not a submit");
        };
        let DesignSource::Json(doc) = &request.source else {
            panic!("not inline JSON");
        };
        assert_eq!(doc, r#"{"a":1.5,"layers":[],"name":"e"}"#);
    }

    #[test]
    fn syntax_errors_anywhere_win_over_member_checks() {
        // The op is unknown and the id present, but the trailing garbage
        // makes the whole line invalid JSON: no id, tree-parser message.
        let (id, error) = parse_request(r#"{"id":3,"op":"frobnicate"} x"#).unwrap_err();
        assert_eq!(id, Value::Null);
        assert_eq!(
            error.message,
            "request is not valid JSON: trailing characters at line 1 column 28"
        );
        let (id, error) = parse_request("[1, 2]").unwrap_err();
        assert_eq!(id, Value::Null);
        assert_eq!(error.message, "request must be a JSON object");
        let (_, error) = parse_submit_body(r#"[{"benchmark":"b"}]"#).unwrap_err();
        assert_eq!(error.message, "submit must be a JSON object");
        let (_, error) = parse_submit_body(r#"{"benchmark":"b","design":{"a":}}"#).unwrap_err();
        assert!(error
            .message
            .starts_with("body is not valid JSON: expected value"));
    }

    #[test]
    fn submit_options_round_trip() {
        let request = parse_request(
            r#"{"op":"submit","id":"a","benchmark":"b","stages":["validate","pnr"],"deadline_ms":50,"fuel":1000}"#,
        )
        .unwrap();
        let Request::Submit(request) = request else {
            panic!("not a submit");
        };
        assert_eq!(request.id, Value::from("a"));
        assert_eq!(
            request.stages.as_deref(),
            Some(&["validate".to_string(), "pnr".to_string()][..])
        );
        assert_eq!(request.deadline_ms, Some(50));
        assert_eq!(request.fuel, Some(1000));
    }

    #[test]
    fn malformed_lines_are_bad_requests_with_recovered_ids() {
        let (id, error) = parse_request("{not json").unwrap_err();
        assert_eq!(id, Value::Null);
        assert_eq!(error.kind, ErrorKind::BadRequest);

        let (id, error) = parse_request(r#"{"id":7,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(id, Value::from(7));
        assert_eq!(error.kind, ErrorKind::BadRequest);

        let (_, error) = parse_request(r#"{"op":"submit"}"#).unwrap_err();
        assert!(error.message.contains("exactly one of"));

        let (_, error) =
            parse_request(r#"{"op":"submit","design":{},"mint":"DEVICE d"}"#).unwrap_err();
        assert_eq!(error.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn events_echo_the_id_verbatim() {
        let id = Value::from(42);
        let pong = pong_event(&id);
        assert_eq!(pong["id"], Value::from(42));
        assert_eq!(pong["event"], Value::from("pong"));
        let line = to_line(&pong);
        assert!(line.ends_with('\n'));
        assert!(!line[..line.len() - 1].contains('\n'));

        let error = error_event(&Value::Null, &WireError::new(ErrorKind::Busy, "queue full"));
        assert_eq!(error["error"]["kind"], Value::from("busy"));
    }

    #[test]
    fn retry_hints_ride_on_busy_errors_only_when_set() {
        let plain = error_event(&Value::Null, &WireError::new(ErrorKind::Busy, "queue full"));
        assert!(plain["error"]["retry_after_ms"].is_null());

        let hinted = error_event(
            &Value::from("r1"),
            &WireError::new(ErrorKind::Busy, "queue full").with_retry_after_ms(125),
        );
        assert_eq!(hinted["error"]["retry_after_ms"], Value::from(125u64));
        assert_eq!(hinted["error"]["kind"], Value::from("busy"));
    }

    #[test]
    fn responses_carry_the_protocol_version() {
        let pong = pong_event(&Value::Null);
        assert_eq!(pong["proto"], Value::from(PROTO));
        let done = done_event(&Value::Null, "d", "00", false, None, 0);
        assert_eq!(done["proto"], Value::from(PROTO));
    }

    #[test]
    fn proto_negotiation_accepts_v1_and_refuses_the_rest() {
        // Absent and explicit v1 both negotiate.
        assert!(parse_request(r#"{"op":"ping"}"#).is_ok());
        assert!(parse_request(r#"{"op":"ping","proto":"parchmint-serve/1"}"#).is_ok());
        assert!(parse_request(r#"{"op":"ping","proto":null}"#).is_ok());

        // Unknown majors, foreign protocols, and non-strings are refused
        // with the dedicated kind, id still recovered.
        let (id, error) =
            parse_request(r#"{"op":"ping","id":9,"proto":"parchmint-serve/2"}"#).unwrap_err();
        assert_eq!(id, Value::from(9));
        assert_eq!(error.kind, ErrorKind::UnsupportedProto);
        assert!(error.message.contains("parchmint-serve/1"));

        let (_, error) = parse_request(r#"{"op":"ping","proto":"grpc"}"#).unwrap_err();
        assert_eq!(error.kind, ErrorKind::UnsupportedProto);
        let (_, error) = parse_request(r#"{"op":"ping","proto":7}"#).unwrap_err();
        assert_eq!(error.kind, ErrorKind::UnsupportedProto);
    }

    #[test]
    fn http_submit_bodies_parse_without_an_op() {
        let request = parse_submit_body(r#"{"id":"h","benchmark":"logic_gate_or"}"#).unwrap();
        assert_eq!(request.id, Value::from("h"));
        assert!(matches!(request.source, DesignSource::Benchmark(_)));
        // An explicit submit op is tolerated; any other op is not.
        assert!(parse_submit_body(r#"{"op":"submit","benchmark":"b"}"#).is_ok());
        let (_, error) = parse_submit_body(r#"{"op":"stats","benchmark":"b"}"#).unwrap_err();
        assert_eq!(error.kind, ErrorKind::BadRequest);
        let (_, error) =
            parse_submit_body(r#"{"benchmark":"b","proto":"parchmint-serve/9"}"#).unwrap_err();
        assert_eq!(error.kind, ErrorKind::UnsupportedProto);
    }
}
