//! Property tests of the `cubied` request parser against hostile input.
//!
//! `cubie_serve::proto::parse_request` reads every line a client sends,
//! so it must answer `Ok` or `Err` for any line, never panic:
//!
//! * arbitrary byte lines (decoded as lossy UTF-8, as the daemon's line
//!   reader would see them), drawn half from JSON punctuation so many
//!   get past the first byte;
//! * valid requests built with `SweepSpec`/`AdviseSpec::to_json` and
//!   `simple_request`, then truncated, byte-flipped, spliced with another
//!   request or random bytes, nested deeply (past the parser's depth
//!   limit and short of it, balanced and not), or given a field whose
//!   value has the wrong type or range.
//!
//! Unmutated, every `to_json` output parses back to the spec it came
//! from.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cubie::golden::Json;
use cubie::serve::proto::{parse_request, simple_request, AdviseSpec, Request, SweepSpec};
use proptest::prelude::*;

/// JSON punctuation, literals' letters, digits and escapes: bytes that
/// steer a random line deep into the parser.
const JSON_BYTES: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn\\ \t";

/// `parse_request(line)`, failing the test with the line if it panics.
fn parse_without_panic(line: &str) -> Result<Request, String> {
    catch_unwind(AssertUnwindSafe(|| parse_request(line)))
        .unwrap_or_else(|_| panic!("parse_request panicked on {line:?}"))
}

/// One byte: a JSON-significant byte or any byte, evenly.
fn arb_byte() -> impl Strategy<Value = u8> {
    (any::<bool>(), 0u16..256, any::<prop::sample::Index>()).prop_map(|(json, b, i)| {
        if json {
            JSON_BYTES[i.index(JSON_BYTES.len())]
        } else {
            b as u8
        }
    })
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(arb_byte(), 0..max)
}

/// Short strings over ASCII letters, JSON metacharacters, control
/// characters and multi-byte code points, so `to_json` has to escape.
fn arb_string() -> impl Strategy<Value = String> {
    const CHARS: &[char] = &[
        'a', 'z', 'w', '=', ',', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
        '\u{2028}', '𝄞',
    ];
    prop::collection::vec(any::<prop::sample::Index>(), 0..12)
        .prop_map(|picks| picks.iter().map(|i| CHARS[i.index(CHARS.len())]).collect())
}

/// `None`, a small value, or one at the edges of `usize`.
fn arb_opt_usize() -> impl Strategy<Value = Option<usize>> {
    (0usize..4, 0usize..1000).prop_map(|(kind, v)| match kind {
        0 => None,
        1 => Some(v),
        2 => Some(usize::MAX - v),
        _ => Some(0),
    })
}

fn arb_sweep_spec() -> impl Strategy<Value = SweepSpec> {
    (
        prop::collection::vec(arb_string(), 0..4),
        arb_opt_usize(),
        arb_opt_usize(),
        arb_opt_usize(),
        any::<bool>(),
    )
        .prop_map(
            |(filters, jobs, sparse_scale, graph_scale, verify)| SweepSpec {
                filters,
                jobs,
                sparse_scale,
                graph_scale,
                verify,
            },
        )
}

fn arb_advise_spec() -> impl Strategy<Value = AdviseSpec> {
    (
        arb_string(),
        any::<bool>(),
        prop::collection::vec(arb_string(), 0..4),
        arb_opt_usize(),
        arb_opt_usize(),
    )
        .prop_map(
            |(workload, some, devices, sparse_scale, graph_scale)| AdviseSpec {
                workload,
                devices: some.then_some(devices),
                sparse_scale,
                graph_scale,
            },
        )
}

/// A valid request of any kind, as a client would build it.
fn arb_request() -> impl Strategy<Value = Json> {
    let simple = (any::<prop::sample::Index>(), arb_string()).prop_map(|(i, other)| {
        let cmds = ["ping", "stats", "shutdown", "sweep", "profile", "advise"];
        let cmd = if i.index(cmds.len() + 1) < cmds.len() {
            cmds[i.index(cmds.len() + 1)].to_string()
        } else {
            other
        };
        simple_request(&cmd)
    });
    prop_oneof![
        simple,
        arb_sweep_spec().prop_map(|s| s.to_json("sweep")),
        arb_sweep_spec().prop_map(|s| s.to_json("profile")),
        arb_advise_spec().prop_map(|s| s.to_json()),
    ]
}

/// A JSON value of any type, including integers out of `usize` range
/// and arrays that mix types.
fn arb_json_value() -> impl Strategy<Value = Json> {
    (0usize..9, arb_string(), -1000i64..1000).prop_map(|(kind, text, n)| match kind {
        0 => Json::Null,
        1 => Json::Bool(n % 2 == 0),
        2 => Json::Int(i128::from(n)),
        3 => Json::Int(i128::from(u64::MAX) + 1 + i128::from(n.unsigned_abs())),
        4 => Json::Float(n as f64 / 8.0),
        5 => Json::Str(text),
        6 => Json::Array(vec![Json::Str(text), Json::Int(i128::from(n))]),
        7 => Json::Array(vec![Json::Array(vec![Json::Str(text)])]),
        _ => Json::Object(vec![(text, Json::Int(i128::from(n)))]),
    })
}

/// Every key a request may carry.
const KEYS: [&str; 8] = [
    "cmd",
    "filters",
    "jobs",
    "sparse_scale",
    "graph_scale",
    "verify",
    "workload",
    "devices",
];

/// A valid request line, mutated in one of six ways.
fn arb_mutated_line() -> impl Strategy<Value = String> {
    (
        (arb_request(), arb_request(), arb_json_value()),
        0usize..6,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        arb_bytes(24),
        1usize..400,
    )
        .prop_map(|((request, other, value), how, at, at2, noise, depth)| {
            if how == 5 {
                // One field set (or added) with a value of any type.
                let Json::Object(mut pairs) = request else {
                    unreachable!("requests are objects")
                };
                let key = KEYS[at.index(KEYS.len())];
                match pairs.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => *v = value,
                    None => pairs.push((key.to_string(), value)),
                }
                return Json::Object(pairs).to_canonical_string();
            }
            let mut b = request.to_canonical_string().into_bytes();
            let other = other.to_canonical_string();
            let cut = at.index(b.len() + 1);
            match how {
                // Truncated at any byte (possibly mid code point).
                0 => b.truncate(cut),
                // One to three bytes flipped.
                1 => {
                    for (k, &mask) in noise.iter().take(3).enumerate() {
                        let i = (cut + k * 7) % b.len();
                        b[i] ^= mask.max(1);
                    }
                }
                // A prefix of this request spliced onto a suffix of another.
                2 => {
                    let o = other.into_bytes();
                    b.truncate(cut);
                    b.extend_from_slice(&o[at2.index(o.len() + 1)..]);
                }
                // Random bytes inserted at any position.
                3 => {
                    b.splice(cut..cut, noise);
                }
                // Deep nesting at any position, balanced or left open.
                _ => {
                    let (open, close) = if at2.index(2) == 0 {
                        (b'[', b']')
                    } else {
                        (b'{', b'}')
                    };
                    let mut deep = vec![open; depth];
                    if at2.index(3) != 0 {
                        deep.extend(std::iter::repeat_n(close, depth));
                    }
                    b.splice(cut..cut, deep);
                }
            }
            String::from_utf8_lossy(&b).into_owned()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte lines are answered, never a panic.
    #[test]
    fn arbitrary_lines_never_panic(bytes in arb_bytes(160)) {
        let _ = parse_without_panic(&String::from_utf8_lossy(&bytes));
    }

    /// Truncated, flipped, spliced, padded, deeply nested and mistyped
    /// requests are answered, never a panic.
    #[test]
    fn mutated_requests_never_panic(line in arb_mutated_line()) {
        let _ = parse_without_panic(&line);
    }

    /// Every `to_json` output parses back to the spec it was built from.
    #[test]
    fn to_json_round_trips(sweep in arb_sweep_spec(), advise in arb_advise_spec()) {
        for (cmd, want) in [
            ("sweep", Request::Sweep(sweep.clone())),
            ("profile", Request::Profile(sweep.clone())),
        ] {
            let line = sweep.to_json(cmd).to_canonical_string();
            prop_assert_eq!(parse_without_panic(&line), Ok(want), "{}", line);
        }
        let line = advise.to_json().to_canonical_string();
        prop_assert_eq!(parse_without_panic(&line), Ok(Request::Advise(advise)), "{}", line);
    }
}

/// Nesting just inside the parser's depth limit parses; one level more
/// is an error, not a crash.
#[test]
fn nesting_at_the_depth_limit_is_answered() {
    let nested = |depth: usize| {
        format!(
            r#"{{"cmd":"sweep","filters":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    // The outer object is level 1, so 127 brackets reach the limit.
    assert!(Json::parse(&nested(127)).is_ok());
    assert!(Json::parse(&nested(128)).is_err());
    for depth in [127, 128, 10_000] {
        let err = parse_without_panic(&nested(depth)).unwrap_err();
        assert!(!err.is_empty(), "depth {depth}");
    }
}
