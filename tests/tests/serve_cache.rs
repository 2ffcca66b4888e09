//! The daemon's artifact cache: identical designs are served from
//! cache with byte-identical stage results, and the content hash is
//! insensitive to whitespace and member order by construction — the
//! streamed canonical writer agrees with printing the parsed tree.

use parchmint_serve::hash::{canonical_string, canonical_text, content_hash, hash_json_str, hex};
use parchmint_serve::protocol::{DesignSource, SubmitRequest};
use parchmint_serve::{ServeConfig, Service};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use serde_json::Value;

fn submit(service: &Service, source: DesignSource) -> Vec<Value> {
    let request = SubmitRequest {
        id: Value::from("t"),
        source,
        stages: None,
        deadline_ms: None,
        fuel: None,
    };
    let mut events = Vec::new();
    service.process_submit(&request, &mut |event| events.push(event));
    events
}

/// Strips the wall-clock fields and the cache provenance flag, leaving
/// exactly the payload that must replay byte-identically.
fn stripped(events: &[Value]) -> Vec<Value> {
    events
        .iter()
        .map(|event| {
            let mut event = event.clone();
            if let Some(object) = event.as_object_mut() {
                object.remove("wall_ms");
                object.remove("compile_ms");
                object.remove("cached");
            }
            event
        })
        .collect()
}

#[test]
fn resubmitting_the_same_design_replays_every_stage_from_cache() {
    let service = Service::new(ServeConfig::default());
    let design = canonical_text(
        &parchmint_suite::by_name("logic_gate_or")
            .expect("registered benchmark")
            .device()
            .to_json()
            .expect("serializes"),
    )
    .expect("parses");

    let first = submit(&service, DesignSource::Json(design.clone()));
    let second = submit(&service, DesignSource::Json(design));
    assert_eq!(first.len(), 11, "10 stage cells + done");

    // Every event of the second run is flagged cached, and — with the
    // wall-clock stripped — is byte-identical to the first run's.
    for event in &second {
        assert_eq!(event["cached"], Value::from(true), "{event}");
    }
    assert_eq!(
        serde_json::to_string(&stripped(&first)).unwrap(),
        serde_json::to_string(&stripped(&second)).unwrap(),
        "replayed results must be byte-identical"
    );

    let counters = service.cache().counters();
    assert_eq!((counters.memory_hits, counters.misses), (1, 1));
    assert_eq!((counters.stage_hits, counters.stage_misses), (10, 10));
    assert_eq!(service.cache().len(), 1);
}

#[test]
fn benchmark_mint_and_json_submissions_share_one_cache_entry() {
    // The same design arriving by registry name, as MINT text, and as
    // inline JSON must hash to the same key: the canonical document is
    // derived from the device, not from the transport encoding.
    let service = Service::new(ServeConfig::default());
    let device = parchmint_suite::by_name("logic_gate_or")
        .expect("registered benchmark")
        .device();
    let json = canonical_text(&device.to_json().expect("serializes")).unwrap();

    submit(&service, DesignSource::Benchmark("logic_gate_or".into()));
    let second = submit(&service, DesignSource::Json(json));
    assert_eq!(second[0]["cached"], Value::from(true));
    assert_eq!(service.cache().len(), 1, "one entry, two encodings");
}

#[test]
fn pretty_and_compact_serializations_hash_identically() {
    let device = parchmint_suite::by_name("rotary_pump_mixer")
        .expect("registered benchmark")
        .device();
    let compact = device.to_json().expect("serializes");
    let pretty = device.to_json_pretty().expect("serializes");
    assert_ne!(compact, pretty);
    assert_eq!(
        hash_json_str(&compact).unwrap(),
        hash_json_str(&pretty).unwrap()
    );
}

/// Renders `pairs` as a JSON object, optionally reversed and with
/// noisy-but-legal whitespace.
fn render(pairs: &[(&String, &i64)], reversed: bool, noisy: bool) -> String {
    let mut ordered: Vec<_> = pairs.to_vec();
    if reversed {
        ordered.reverse();
    }
    let sep = if noisy { " ,\n\t" } else { "," };
    let colon = if noisy { " :  " } else { ":" };
    let body: Vec<String> = ordered
        .iter()
        .map(|(k, v)| format!("\"{k}\"{colon}{v}"))
        .collect();
    if noisy {
        format!("{{\n {} }}", body.join(sep))
    } else {
        format!("{{{}}}", body.join(sep))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pinned over the vendored serde_json: parsing erases whitespace
    /// and the BTreeMap-backed object erases member order, so the
    /// canonical hash sees neither.
    #[test]
    fn content_hash_ignores_whitespace_and_member_order(
        map in proptest::collection::btree_map("[a-z]{1,8}", -1000i64..1000, 1..8)
    ) {
        let pairs: Vec<_> = map.iter().collect();
        let forward = render(&pairs, false, false);
        let backward_noisy = render(&pairs, true, true);
        prop_assert_eq!(
            hash_json_str(&forward).unwrap(),
            hash_json_str(&backward_noisy).unwrap()
        );
    }

    /// Changing any one value changes the hash (FNV is not collision-
    /// proof, but it must at least separate these).
    #[test]
    fn content_hash_separates_single_value_edits(
        map in proptest::collection::btree_map("[a-z]{1,8}", -1000i64..1000, 1..8)
    ) {
        let base: Value = serde_json::from_str(
            &render(&map.iter().collect::<Vec<_>>(), false, false)
        ).unwrap();
        let key = map.keys().next().unwrap().clone();
        let mut edited = map.clone();
        edited.insert(key, 5000);
        let edited: Value = serde_json::from_str(
            &render(&edited.iter().collect::<Vec<_>>(), false, false)
        ).unwrap();
        prop_assert_ne!(content_hash(&base), content_hash(&edited));
        prop_assert_eq!(hex(content_hash(&base)).len(), 16);
    }
}

/// A JSON document as written: members in order, duplicate keys kept,
/// numbers in the textual form chosen for them.
enum Json {
    Scalar(String),
    Str(String),
    Array(Vec<Json>),
    /// Members, and the order a shuffled rendering writes them in.
    Object(Vec<(String, Json)>, Vec<usize>),
}

/// How a [`Json`] is rendered.
#[derive(Clone, Copy)]
struct Style {
    pretty: bool,
    shuffled: bool,
    escape_all: bool,
}

fn pick(runner: &mut TestRunner, n: usize) -> usize {
    (0..n).generate(runner)
}

/// A number or literal, in one of the textual forms JSON allows.
fn arbitrary_scalar(runner: &mut TestRunner) -> String {
    let unit: f64 = any::<f64>().generate(runner);
    let float = (unit - 0.5) * 10f64.powi((-30i32..30).generate(runner));
    match pick(runner, 12) {
        0 => ["null", "true", "false"][pick(runner, 3)].to_string(),
        1 => any::<i64>().generate(runner).to_string(),
        2 => any::<u64>().generate(runner).to_string(),
        3 => (-1000i64..1000).generate(runner).to_string(),
        4 => format!("{}.0", (-1000i64..1000).generate(runner)),
        5 => format!("{float:?}"),
        6 => format!("{float:e}"),
        7 => format!("{float:E}"),
        8 => format!(
            "{}e{}",
            (-99i64..99).generate(runner),
            (-20i32..20).generate(runner)
        ),
        9 => format!(
            "{}.25E+{}",
            (0i64..9).generate(runner),
            (0i32..9).generate(runner)
        ),
        _ => ["-0.0", "-0", "0e0", "-0E-0", "1e300", "5e-324"][pick(runner, 6)].to_string(),
    }
}

/// A string with quotes, backslashes, control and non-ASCII characters.
fn arbitrary_string(runner: &mut TestRunner) -> String {
    "[a-c\u{0}-\u{1f}\"\\\\/ é\u{7f}\u{2028}😀]{0,6}".generate(runner)
}

fn arbitrary_json(runner: &mut TestRunner, depth: usize) -> Json {
    match pick(runner, if depth == 0 { 2 } else { 4 }) {
        0 => Json::Scalar(arbitrary_scalar(runner)),
        1 => Json::Str(arbitrary_string(runner)),
        2 => Json::Array(
            (0..pick(runner, 4))
                .map(|_| arbitrary_json(runner, depth - 1))
                .collect(),
        ),
        _ => {
            // Keys from a small set, so duplicates are common.
            let members: Vec<(String, Json)> = (0..pick(runner, 5))
                .map(|_| {
                    let key = "[ab\u{e9}\n]{0,2}".generate(runner);
                    (key, arbitrary_json(runner, depth - 1))
                })
                .collect();
            let mut order: Vec<(u64, usize)> = (0..members.len())
                .map(|i| (any::<u64>().generate(runner), i))
                .collect();
            order.sort();
            Json::Object(members, order.into_iter().map(|(_, i)| i).collect())
        }
    }
}

fn push_string(out: &mut String, text: &str, escape_all: bool) {
    if !escape_all {
        out.push_str(&serde_json::to_string(text).unwrap());
        return;
    }
    out.push('"');
    for unit in text.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
}

fn render_json(json: &Json, style: Style, depth: usize, out: &mut String) {
    let newline = |out: &mut String, depth: usize| {
        if style.pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    match json {
        Json::Scalar(text) => out.push_str(text),
        Json::Str(text) => push_string(out, text, style.escape_all),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                render_json(item, style, depth + 1, out);
            }
            newline(out, depth);
            out.push(']');
        }
        Json::Object(members, order) => {
            out.push('{');
            for (i, &index) in order.iter().enumerate() {
                let (key, value) = &members[if style.shuffled { index } else { i }];
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                push_string(out, key, style.escape_all);
                out.push_str(if style.pretty { ": " } else { ":" });
                render_json(value, style, depth + 1, out);
            }
            newline(out, depth);
            out.push('}');
        }
    }
}

/// The writer's verdict on `text` must be the tree path's: the same
/// canonical text, or the same error.
fn writer_agrees_with_the_tree(text: &str) -> Result<(), TestCaseError> {
    match (canonical_text(text), serde_json::from_str::<Value>(text)) {
        (Ok(streamed), Ok(tree)) => prop_assert_eq!(streamed, canonical_string(&tree)),
        (Err(streamed), Err(tree)) => prop_assert_eq!(streamed.to_string(), tree.to_string()),
        (streamed, tree) => prop_assert!(false, "{text:?}: {streamed:?} vs {tree:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `canonical_text` (the streaming writer) against the tree path as
    /// the oracle, over compact, pretty, shuffled and fully escaped
    /// renderings of documents with duplicate keys, escapes, and every
    /// number form — and over corrupted copies of them.
    #[test]
    fn canonical_writer_matches_the_tree_path(
        json in BoxedStrategy::from_fn(|runner| arbitrary_json(runner, 4)),
        cut in 0usize..10_000,
        junk in 0usize..8,
    ) {
        let mut renderings = Vec::new();
        for (pretty, shuffled, escape_all) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (true, true, true),
        ] {
            let mut text = String::new();
            render_json(&json, Style { pretty, shuffled, escape_all }, 0, &mut text);
            writer_agrees_with_the_tree(&text)?;
            renderings.push(text);
        }
        // Layout never changes the canonical form.
        prop_assert_eq!(canonical_text(&renderings[1]).ok(), canonical_text(&renderings[0]).ok());

        // Corrupt a copy: truncate it, or insert a stray character.
        let mut bad = renderings[cut % renderings.len()].clone();
        let mut at = cut % (bad.len() + 1);
        while !bad.is_char_boundary(at) {
            at -= 1;
        }
        match [None, Some(','), Some('}'), Some(']'), Some('"'), Some(':'), Some('\\'), Some('x')][junk] {
            None => bad.truncate(at),
            Some(c) => bad.insert(at, c),
        }
        writer_agrees_with_the_tree(&bad)?;
    }
}
