//! `wire_props` — the one-pass `/score` decoder against the tree-based
//! decoder it replaced.
//!
//! `survd::parse_score_request` walks body bytes straight to rows over
//! the `obs::jsonv::Reader` lexer. [`reference`] is the earlier
//! implementation, kept here as the oracle: `jsonv::parse` builds the
//! whole tree, then the tree is checked and converted. Over generated
//! bodies — pretty and compact, extreme number literals, escaped,
//! duplicate and extra keys, truncated and byte-flipped, deeply nested
//! and holding long strings — the two must
//!
//! 1. accept the same bodies, with bitwise-equal rows;
//! 2. refuse the same bodies, and every refusal of a body with at most
//!    `MAX_ROWS` rows is a 400;
//! 3. answer 413 once the decoder opens row `MAX_ROWS + 1` after
//!    `MAX_ROWS` valid rows, however the body goes on. This is where
//!    the two may differ: the reference reads the whole body before it
//!    counts rows (DESIGN.md §11, "Request path").

use obs::jsonv::{self, JsonV};
use proptest::prelude::*;

const FEATURES: usize = 3;
const MAX_ROWS: usize = 4;

/// The tree-then-convert decoder: the reference for the one-pass one.
/// Refusals carry only their HTTP status.
fn reference(body: &str, feature_count: usize, max_rows: usize) -> Result<Vec<Vec<f64>>, u16> {
    let root = jsonv::parse(body).map_err(|_| 400u16)?;
    let JsonV::Obj(fields) = &root else {
        return Err(400);
    };
    if fields.len() != 1 || fields[0].0 != "rows" {
        return Err(400);
    }
    let JsonV::Arr(raw_rows) = &fields[0].1 else {
        return Err(400);
    };
    if raw_rows.is_empty() {
        return Err(400);
    }
    if raw_rows.len() > max_rows {
        return Err(413);
    }
    let mut rows = Vec::with_capacity(raw_rows.len());
    for raw in raw_rows {
        let JsonV::Arr(values) = raw else {
            return Err(400);
        };
        if values.len() != feature_count {
            return Err(400);
        }
        let mut row = Vec::with_capacity(values.len());
        for value in values {
            let v = match value {
                JsonV::Float(f) => *f,
                JsonV::UInt(u) => *u as f64,
                _ => return Err(400),
            };
            if !v.is_finite() {
                return Err(400);
            }
            row.push(v);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Number literals and whether each is a valid feature value: the
/// extremes of `f64` and `u64`, signed zeros, subnormals, integers
/// around 2^53, and literals that overflow to infinity or past `u64`.
const NUMBERS: [(&str, bool); 24] = [
    ("0", true),
    ("-0", true),
    ("-0.0", true),
    ("0.5", true),
    ("007", true),
    ("1.", true),
    ("-5", true),
    ("1E5", true),
    ("1e-5", true),
    ("5e-324", true),
    ("1.1125369292536007e-308", true),
    ("2.2250738585072014e-308", true),
    ("1e308", true),
    ("-1e308", true),
    ("1.7976931348623157e308", true),
    ("9007199254740992", true),
    ("9007199254740993", true),
    ("-9007199254740993", true),
    ("18446744073709551615", true),
    ("18446744073709551616", false),
    ("1e400", false),
    ("-1e400", false),
    ("1.5e+3", true),
    ("1e", false),
];

/// Values that are JSON but not numbers.
const NOT_NUMBERS: [&str; 6] = ["null", "true", "\"s\"", "[]", "{}", "[1]"];

/// Keys, and whether each decodes to `rows`.
const KEYS: [(&str, bool); 6] = [
    ("\"rows\"", true),
    ("\"rows\"", true),
    ("\"\\u0072ows\"", true),
    ("\"r\\u006fws\"", true),
    ("\"rows \"", false),
    ("\"ro\\/ws\"", false),
];

/// A splitmix64 stream: the generated structure of one case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One generated body and what its structure implies.
struct Body {
    text: String,
    /// Rows in the (first) `rows` array.
    rows: usize,
    /// Byte offset of the `[` that opens row `MAX_ROWS + 1`, when the
    /// key decodes to `rows`, nothing precedes it, and the first
    /// `MAX_ROWS` rows are valid: a decoder reading past this offset
    /// must answer 413.
    cap_open: Option<usize>,
}

/// Whitespace between tokens: none when compact, a random run of
/// JSON whitespace when pretty.
fn space(g: &mut Gen, pretty: bool) -> &'static str {
    if !pretty {
        return "";
    }
    ["", " ", "\n  ", "\n    ", "\t", "\r\n"][g.below(6)]
}

/// One feature value and whether it is valid; only valid numbers
/// unless `noisy`.
fn value(g: &mut Gen, noisy: bool) -> (String, bool) {
    match g.below(if noisy { 100 } else { 85 }) {
        0..=49 => {
            let (text, ok) = NUMBERS[g.below(NUMBERS.len())];
            if ok || noisy {
                (text.to_string(), ok)
            } else {
                ("0".to_string(), true)
            }
        }
        50..=84 => {
            let v = (g.next() as i64) as f64 / (1u64 << g.below(64)) as f64;
            let text = if g.chance(50) {
                format!("{v}")
            } else {
                format!("{v:e}")
            };
            (text, true)
        }
        85..=91 => (NOT_NUMBERS[g.below(NOT_NUMBERS.len())].to_string(), false),
        92..=95 => {
            let depth = 1 + g.below(300);
            (format!("{}{}", "[".repeat(depth), "]".repeat(depth)), false)
        }
        _ => (format!("\"{}\"", "x".repeat(g.below(20_000))), false),
    }
}

/// A body; half of them are noisy, the rest are valid except,
/// possibly, for their row count or a trailing comma after the rows.
fn body(g: &mut Gen) -> Body {
    let pretty = g.chance(50);
    let noisy = g.chance(50);
    let mut text = String::from("{");
    let extra_before = noisy && g.chance(20);
    if extra_before {
        text.push_str(space(g, pretty));
        text.push_str("\"extra\":1,");
    }
    text.push_str(space(g, pretty));
    let (key, is_rows) = KEYS[g.below(if noisy { KEYS.len() } else { 4 })];
    text.push_str(key);
    text.push_str(space(g, pretty));
    text.push(':');
    text.push_str(space(g, pretty));
    text.push('[');
    let rows = g.below(MAX_ROWS + 3);
    let mut valid_prefix = true;
    let mut cap_open = None;
    for i in 0..rows {
        if i > 0 {
            text.push(',');
        }
        text.push_str(space(g, pretty));
        if i == MAX_ROWS && valid_prefix && is_rows && !extra_before {
            cap_open = Some(text.len());
        }
        text.push('[');
        let width = match g.below(10) {
            0 if noisy => FEATURES - 1,
            1 if noisy => FEATURES + 1,
            _ => FEATURES,
        };
        let mut row_ok = width == FEATURES;
        for j in 0..width {
            if j > 0 {
                text.push(',');
                text.push_str(space(g, pretty));
            }
            let (v, ok) = value(g, noisy);
            row_ok &= ok;
            text.push_str(&v);
        }
        text.push_str(space(g, pretty));
        text.push(']');
        valid_prefix &= row_ok;
    }
    if g.chance(5) {
        text.push(',');
    }
    text.push_str(space(g, pretty));
    text.push(']');
    if noisy {
        match g.below(5) {
            0 => text.push_str(",\"extra\":[1,2]"),
            1 => text.push_str(",\"rows\":[[1,2,3]]"),
            _ => {}
        }
    }
    text.push_str(space(g, pretty));
    text.push('}');
    text.push_str(space(g, pretty));
    if noisy && g.chance(10) {
        let depth = 1 + g.below(300);
        text = format!("{}{text}{}", "[".repeat(depth), "]".repeat(depth));
        cap_open = None;
    }
    Body {
        text,
        rows,
        cap_open,
    }
}

/// Decodes `text` both ways and checks the three properties; `rows`
/// bounds the body's rows and `cap` says whether the 413 point is
/// intact.
fn check(text: &str, rows: usize, cap: bool) {
    let one = survd::parse_score_request(text, FEATURES, MAX_ROWS);
    let want = reference(text, FEATURES, MAX_ROWS);
    let shown: String = text.chars().take(240).collect();
    match (&one, &want) {
        (Ok(got), Ok(want)) => {
            let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                rows.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&got.rows), bits(want), "rows differ for {shown:?}");
            assert!(!cap, "accepted an over-cap body {shown:?}");
        }
        (Err(e), Err(_)) => {
            assert!(!e.message.is_empty(), "refusal without a message");
            assert!(matches!(e.status, 400 | 413), "status {}", e.status);
            if rows <= MAX_ROWS {
                assert_eq!(e.status, 400, "{shown:?}: {e}");
            }
            if cap {
                assert_eq!(e.status, 413, "{shown:?}: {e}");
            }
        }
        _ => panic!("decoders disagree on {shown:?}: one-pass {one:?}, reference {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whole generated bodies, then a truncation and an ASCII byte
    /// flip of each: the decoders agree, and the statuses obey the
    /// row cap.
    #[test]
    fn one_pass_decoder_matches_the_tree_reference(
        seed in any::<u64>(),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_to in 0u8..128,
    ) {
        let mut g = Gen(seed);
        let b = body(&mut g);
        check(&b.text, b.rows, b.cap_open.is_some());

        let cut = cut % (b.text.len() + 1);
        let reached = |at: usize| b.cap_open.is_some_and(|open| at > open);
        check(&b.text[..cut], b.rows, reached(cut));

        let mut flipped = b.text.clone().into_bytes();
        let at = flip_at % flipped.len();
        flipped[at] = flip_to;
        let flipped = String::from_utf8(flipped).expect("generated bodies are ASCII");
        check(&flipped, b.rows, reached(at));
    }
}

#[test]
fn valid_bodies_decode_bitwise_in_both_layouts() {
    // Every literal of the table that is a valid feature, in rows of
    // FEATURES, rendered compact and pretty.
    let valid: Vec<&str> = NUMBERS
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(text, _)| *text)
        .collect();
    let rows: Vec<String> = valid
        .chunks(FEATURES)
        .filter(|c| c.len() == FEATURES)
        .map(|c| format!("[{}]", c.join(",")))
        .collect();
    for chunk in rows.chunks(MAX_ROWS) {
        let compact = format!("{{\"rows\":[{}]}}", chunk.join(","));
        let pretty = format!(
            "{{\n  \"rows\": [\n    {}\n  ]\n}}\n",
            chunk.join(",\n    ")
        );
        for text in [&compact, &pretty] {
            check(text, chunk.len(), false);
            assert!(survd::parse_score_request(text, FEATURES, MAX_ROWS).is_ok());
        }
    }
    // The daemon's own rendering round-trips too.
    let rows = vec![vec![-0.0, 5e-324, 1e-308], vec![1.5e15, 0.1, -2.5]];
    let text = survd::render_score_request(&rows);
    let got = survd::parse_score_request(&text, FEATURES, MAX_ROWS).expect("valid");
    assert_eq!(got.rows[0][0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(got.rows, rows);
}

#[test]
fn over_cap_precedence_is_first_problem_in_body_order() {
    let row = "[1,2,3]";
    let over = [row; MAX_ROWS + 1].join(",");
    // Malformed after the cap: 413 here, 400 in the reference.
    let text = format!("{{\"rows\":[{over}, garbage");
    let e = survd::parse_score_request(&text, FEATURES, MAX_ROWS).unwrap_err();
    assert_eq!(e.status, 413, "{e}");
    assert_eq!(reference(&text, FEATURES, MAX_ROWS), Err(400));
    // Well-formed over the cap: both 413.
    let text = format!("{{\"rows\":[{over}]}}");
    assert_eq!(
        survd::parse_score_request(&text, FEATURES, MAX_ROWS)
            .unwrap_err()
            .status,
        413
    );
    assert_eq!(reference(&text, FEATURES, MAX_ROWS), Err(413));
    // A trailing comma after `MAX_ROWS` rows opens no row: 400.
    let at_cap = [row; MAX_ROWS].join(",");
    let text = format!("{{\"rows\":[{at_cap}, ]}}");
    let e = survd::parse_score_request(&text, FEATURES, MAX_ROWS).unwrap_err();
    assert_eq!(e.status, 400, "{e}");
    // A bad row before the cap is met first: 400, with its location.
    let text = format!("{{\"rows\":[[1,2,null],{over}]}}");
    let e = survd::parse_score_request(&text, FEATURES, MAX_ROWS).unwrap_err();
    assert_eq!(
        (e.status, e.message.as_str()),
        (400, "rows[0][2] must be a number")
    );
    assert_eq!(reference(&text, FEATURES, MAX_ROWS), Err(413));
}
