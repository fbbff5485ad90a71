//! `chaos_props` — property tests for protocol-level robustness.
//!
//! Three properties:
//!
//! 1. **No panic on arbitrary bytes** — `http::read_request` fed any
//!    byte stream returns a typed verdict (`Request` or `ReadError`),
//!    never panics, and never hands back a body larger than the
//!    configured limit.
//! 2. **No panic on chaos-corrupted requests** — a valid `/score`
//!    request mangled the way `survd::chaos` mangles wire traffic
//!    (truncation, garbage splices, header-size inflation) still
//!    yields a typed verdict, and any `Malformed` verdict carries one
//!    of the daemon's refusal statuses.
//! 3. **Plan determinism** — `ChaosPlan::action` is a pure function
//!    of (seed, ordinal): replaying a seed reproduces the decision
//!    stream bit-for-bit, rate 0 never fires, rate 1 always fires,
//!    and the injected class frequency tracks the configured rate.
//! 4. **No panic in the body parsers** — arbitrary bytes, and valid
//!    `/score` and model bodies corrupted the same ways (truncation,
//!    garbage splices, byte flips, deep nesting), fed to
//!    `wire::parse_score_request`, `jsonv::parse` and
//!    `SavedModel::parse` yield typed errors, never a panic.

use obs::jsonv::{self, JsonError};
use proptest::prelude::*;
use serve::{ModelError, SavedModel};
use std::io::Cursor;
use std::sync::OnceLock;
use survd::chaos::{garbage_bytes, ChaosClass, ChaosPlan};
use survd::http::{read_request, HttpLimits, ReadError};

/// Statuses `ReadError::Malformed` is allowed to carry — the typed
/// refusal vocabulary of the daemon.
const REFUSAL_STATUSES: [u16; 5] = [400, 408, 413, 431, 501];

/// Feeds one byte stream through `read_request` and checks the typed
/// contract; returns whether a request parsed.
fn feed(bytes: &[u8], limits: &HttpLimits) -> bool {
    let mut reader = Cursor::new(bytes.to_vec());
    match read_request(&mut reader, limits) {
        Ok(request) => {
            assert!(
                request.body.len() <= limits.max_body_bytes,
                "parsed body exceeds the configured limit"
            );
            assert!(!request.method.is_empty(), "parsed an empty method");
            true
        }
        Err(ReadError::Malformed { status, message }) => {
            assert!(
                REFUSAL_STATUSES.contains(&status),
                "malformed verdict carries untyped status {status}: {message}"
            );
            assert!(!message.is_empty(), "refusal without a message");
            false
        }
        Err(ReadError::Closed | ReadError::IdleTimeout | ReadError::Io(_)) => false,
    }
}

/// A well-formed `/score` request over `rows`, the daemon's own wire
/// rendering.
fn valid_request(rows: &[Vec<f64>]) -> Vec<u8> {
    let body = survd::render_score_request(rows);
    format!(
        "POST /score HTTP/1.1\r\nhost: props\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A small saved model's canonical text, built once.
fn model_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut data = forest::Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()], 2);
        for i in 0..60 {
            let x0 = i as f64 / 60.0;
            let x1 = ((i * 7) % 11) as f64 / 11.0;
            data.push(vec![x0, x1, 0.5], (x0 + x1 > 0.9) as usize);
        }
        let params = forest::RandomForestParams {
            n_trees: 3,
            ..forest::RandomForestParams::default()
        };
        let forest = forest::RandomForest::fit(&data, &params, 5);
        let meta = serve::ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: 5,
            params,
            grid: None,
        };
        SavedModel::new(forest, meta).render()
    })
}

/// Feeds one body through every body parser and checks the typed
/// contract: a `/score` refusal is a 400 or 413 with a message, a JSON
/// refusal is a `JsonError`, and a model refusal is a parse, schema or
/// validation error. Returns whether the model parser accepted it.
fn feed_body(text: &str) -> bool {
    match survd::parse_score_request(text, 3, 4) {
        Ok(request) => {
            assert!((1..=4).contains(&request.rows.len()));
            assert!(request.rows.iter().flatten().all(|v| v.is_finite()));
        }
        Err(e) => {
            assert!(matches!(e.status, 400 | 413), "untyped status {}", e.status);
            assert!(!e.message.is_empty(), "refusal without a message");
        }
    }
    let mut reader = jsonv::Reader::new(text);
    reader.skip_ws();
    match reader.value().and_then(|v| reader.end().map(|()| v)) {
        Ok(v) => assert_eq!(jsonv::parse(text), Ok(v)),
        Err(JsonError::Syntax { pos, message }) => {
            assert!(pos <= text.len() && !message.is_empty());
        }
        Err(JsonError::TooDeep { pos }) => assert!(pos < text.len()),
    }
    match SavedModel::parse(text) {
        Ok(_) => true,
        Err(ModelError::Parse(m) | ModelError::Schema(m) | ModelError::Invalid(m)) => {
            assert!(!m.is_empty(), "model refusal without a message");
            false
        }
        Err(ModelError::Io(e)) => panic!("parsing text reported i/o: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: any byte stream yields a typed verdict, no panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let limits = HttpLimits::default();
        feed(&bytes, &limits);
        // Tiny limits exercise the over-budget paths on the same input.
        let tiny = HttpLimits { max_head_bytes: 64, max_body_bytes: 32, max_stall_reads: 2 };
        feed(&bytes, &tiny);
    }

    /// Property 2: chaos-style corruption of a valid request still
    /// yields a typed verdict.
    #[test]
    fn corrupted_requests_never_panic_the_reader(
        seed in any::<u64>(),
        ordinal in 0u64..1024,
        cut in 0usize..512,
        garbage_len in 1usize..128,
        n_rows in 1usize..4,
    ) {
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|r| vec![r as f64 * 0.25, 0.5, 1.0 - r as f64 * 0.125])
            .collect();
        let clean = valid_request(&rows);
        let limits = HttpLimits::default();

        // Clean request parses; echoed body matches what was framed.
        prop_assert!(feed(&clean, &limits), "clean request must parse");

        // Truncation at every offset: typed verdict, usually an error.
        let truncated = &clean[..cut.min(clean.len())];
        feed(truncated, &limits);

        // Garbage prefix (what GarbageFrame sends): typed refusal.
        let mut garbled = garbage_bytes(seed, ordinal, garbage_len);
        garbled.extend_from_slice(b"\r\n\r\n");
        prop_assert!(!feed(&garbled, &limits), "garbage must not parse as a request");

        // Garbage spliced into the middle of the head.
        let mut spliced = clean.clone();
        let at = cut.min(spliced.len());
        let splice = garbage_bytes(seed ^ 1, ordinal, garbage_len);
        spliced.splice(at..at, splice);
        feed(&spliced, &limits);

        // Oversized declared length (what OversizedFrame sends).
        let huge = format!(
            "POST /score HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            limits.max_body_bytes + 1
        );
        prop_assert!(!feed(huge.as_bytes(), &limits), "oversized frame must be refused");
    }

    /// Property 3: plan decisions replay exactly and track their rate.
    #[test]
    fn plans_are_deterministic_and_rate_faithful(
        seed in any::<u64>(),
        class_index in 0usize..7,
        rate in 0.0f64..=1.0,
    ) {
        let class = ChaosClass::ALL[class_index];
        let plan = ChaosPlan::single(class, rate, seed);
        plan.validate();

        let first: Vec<Option<ChaosClass>> = (0..256).map(|o| plan.action(o)).collect();
        let replay: Vec<Option<ChaosClass>> = (0..256).map(|o| plan.action(o)).collect();
        prop_assert_eq!(&first, &replay, "replaying a seed must reproduce decisions");

        let fired = first.iter().filter(|a| a.is_some()).count();
        for action in &first {
            prop_assert!(
                action.is_none() || *action == Some(class),
                "single-class plan injected a different class"
            );
        }
        if rate == 0.0 {
            prop_assert_eq!(fired, 0, "rate 0 must never fire");
        }
        if rate == 1.0 {
            prop_assert_eq!(fired, 256, "rate 1 must always fire");
        }
        // Frequency tracks rate (binomial, n=256: ±0.2 is > 6 sigma).
        let frequency = fired as f64 / 256.0;
        prop_assert!(
            (frequency - rate).abs() < 0.2,
            "frequency {frequency} far from rate {rate}"
        );

        // A fresh plan with a different seed is its own stream — but
        // the clean plan never fires regardless of seed.
        let clean = ChaosPlan::none(seed ^ 0xDEAD_BEEF);
        prop_assert!((0..256).all(|o| clean.action(o).is_none()));
    }

    /// Property 4: the body parsers refuse arbitrary and corrupted
    /// bodies with typed errors, never a panic.
    #[test]
    fn corrupted_bodies_never_panic_the_parsers(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        seed in any::<u64>(),
        cut in any::<usize>(),
        garbage_len in 1usize..128,
        depth in 1usize..20_000,
    ) {
        feed_body(&String::from_utf8_lossy(&bytes));

        let score = survd::render_score_request(&[vec![0.25, -1.5, 3.0], vec![0.0, 1e-9, 7.0]]);
        let model = model_text();
        prop_assert!(feed_body(model), "the clean model parses");
        for clean in [score.as_str(), model] {
            let at = cut % (clean.len() + 1);
            let at = (0..=at).rev().find(|&i| clean.is_char_boundary(i)).unwrap_or(0);
            // Truncation, garbage spliced in, and a byte flip.
            feed_body(&clean[..at]);
            let mut spliced = clean.as_bytes().to_vec();
            spliced.splice(at..at, garbage_bytes(seed, at as u64, garbage_len));
            feed_body(&String::from_utf8_lossy(&spliced));
            let mut flipped = clean.as_bytes().to_vec();
            if let Some(b) = flipped.get_mut(at) {
                *b ^= 1 << (seed % 8);
            }
            feed_body(&String::from_utf8_lossy(&flipped));
            // Deep nesting in place of the body's first value.
            let colon = clean.find(':').expect("bodies are objects");
            let deep = format!(
                "{}{}{}",
                &clean[..=colon],
                "[".repeat(depth),
                &clean[colon + 1..]
            );
            prop_assert!(!feed_body(&deep), "a deepened model must be refused");
        }
    }
}
