//! The `/score` request/response JSON, over `obs::jsonv` so rendering
//! is byte-deterministic.
//!
//! Request body:
//!
//! ```json
//! { "rows": [[0.1, 0.2, ...], ...] }
//! ```
//!
//! Response body (`survdb-score-response/v2`):
//!
//! ```json
//! {
//!   "schema": "survdb-score-response/v2",
//!   "generation": 1,
//!   "threshold": 0.75,
//!   "results": [
//!     { "positive": 0.25, "predicted": 0, "confident": true },
//!     ...
//!   ]
//! }
//! ```
//!
//! `generation` is the hot-swap generation counter of the model that
//! scored this request (see [`crate::server`]): every admitted request
//! is scored by exactly one generation, and the response records which
//! one, so a client racing a `/reload` can attribute each answer. v1
//! of this schema had no `generation` field; per the format-evolution
//! rules the breaking addition bumped the id.
//!
//! `positive` renders in Rust's shortest-roundtrip form, so a client
//! parsing it back recovers the server's `f64` bitwise — the loopback
//! tests compare daemon responses against offline `serve::score_rows`
//! output with `==`, no tolerance.

use forest::ConfidenceSplit;
use obs::jsonv::{self, JsonV};
use serve::ScoredRow;

/// Response schema identifier.
pub const RESPONSE_SCHEMA: &str = "survdb-score-response/v2";

/// A parsed `/score` request: one or more feature rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Feature rows, each exactly `feature_count` finite values.
    pub rows: Vec<Vec<f64>>,
}

/// One row of a `/score` response.
#[derive(Debug, Clone, PartialEq)]
pub struct RowScore {
    /// Positive-class probability.
    pub positive: f64,
    /// Predicted class under `p > 0.5`.
    pub predicted: usize,
    /// Whether the row is confident under `t = max(q, 1 - q)`.
    pub confident: bool,
}

impl RowScore {
    /// Projects the wire view out of a scored row.
    pub fn from_scored(row: &ScoredRow) -> RowScore {
        RowScore {
            positive: row.positive,
            predicted: row.predicted,
            confident: row.split == ConfidenceSplit::Confident,
        }
    }
}

/// A parsed `/score` response: which model generation scored it, the
/// confidence threshold in force, and the per-row scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// Hot-swap generation of the scoring model.
    pub generation: u64,
    /// Confidence threshold `max(q, 1 - q)` of that generation.
    pub threshold: f64,
    /// Per-row scores, in request order.
    pub results: Vec<RowScore>,
}

fn number(v: &JsonV, what: &str) -> Result<f64, String> {
    match v {
        JsonV::Float(f) => Ok(*f),
        JsonV::UInt(u) => Ok(*u as f64),
        other => Err(format!("{what} must be a number, found {other:?}")),
    }
}

/// Why a `/score` body was refused, and the HTTP status that says so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 413 when the body holds more rows than the per-request cap,
    /// 400 for every other refusal.
    pub status: u16,
    /// What is wrong, and where: a `rows[i][j]` location or a byte
    /// offset.
    pub message: String,
}

impl DecodeError {
    fn bad(message: impl Into<String>) -> DecodeError {
        DecodeError {
            status: 400,
            message: message.into(),
        }
    }
}

impl From<jsonv::JsonError> for DecodeError {
    fn from(e: jsonv::JsonError) -> DecodeError {
        DecodeError::bad(e.to_string())
    }
}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.message
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Decodes and validates a `/score` request body against the model's
/// feature schema, in one pass from bytes to rows over the
/// [`jsonv::Reader`] lexer: no intermediate tree, no recursion, and an
/// error message is formatted only once a body is refused. The body
/// must be exactly `{"rows": [[n, …], …]}`: one key, one or more rows
/// of `feature_count` finite numbers each. Refusals are 400s, except
/// that meeting row `max_rows + 1` stops the decode with a 413 — the
/// first problem in body order wins. Nothing invalid may pass:
/// downstream scoring (`Dataset::push`) panics on malformed rows.
pub fn parse_score_request(
    body: &str,
    feature_count: usize,
    max_rows: usize,
) -> Result<ScoreRequest, DecodeError> {
    const ONE_KEY: &str = "request must have exactly one key, \"rows\"";
    let mut r = jsonv::Reader::new(body);
    r.skip_ws();
    if !r.eat(b'{') {
        return Err(DecodeError::bad("request must be a JSON object"));
    }
    r.skip_ws();
    if r.peek() != Some(b'"') || r.string()? != "rows" {
        return Err(DecodeError::bad(ONE_KEY));
    }
    r.skip_ws();
    r.expect(b':')?;
    r.skip_ws();
    if !r.eat(b'[') {
        return Err(DecodeError::bad("\"rows\" must be an array"));
    }
    r.skip_ws();
    if r.peek() == Some(b']') {
        return Err(DecodeError::bad("\"rows\" must not be empty"));
    }
    let mut rows = Vec::new();
    loop {
        if rows.len() == max_rows && r.peek() == Some(b'[') {
            return Err(DecodeError {
                status: 413,
                message: format!("more rows than the per-request limit of {max_rows}"),
            });
        }
        rows.push(parse_row(&mut r, rows.len(), feature_count)?);
        if !r.next_item(b']')? {
            break;
        }
    }
    if r.next_item(b'}')? {
        return Err(DecodeError::bad(ONE_KEY));
    }
    r.end()?;
    Ok(ScoreRequest { rows })
}

/// Decodes row `i`, `[n, …]`, at the reader's position.
fn parse_row(
    r: &mut jsonv::Reader<'_>,
    i: usize,
    feature_count: usize,
) -> Result<Vec<f64>, DecodeError> {
    if !r.eat(b'[') {
        return Err(DecodeError::bad(format!("rows[{i}] must be an array")));
    }
    let mut row = Vec::with_capacity(feature_count);
    r.skip_ws();
    if !r.eat(b']') {
        loop {
            let j = row.len();
            if j == feature_count {
                return Err(DecodeError::bad(format!(
                    "rows[{i}] has more than {feature_count} features, the model expects \
                     {feature_count}"
                )));
            }
            if !matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
                return Err(DecodeError::bad(format!("rows[{i}][{j}] must be a number")));
            }
            let v = match r.number()? {
                JsonV::UInt(u) => u as f64,
                JsonV::Float(f) => f,
                _ => unreachable!("Reader::number yields numbers"),
            };
            if !v.is_finite() {
                return Err(DecodeError::bad(format!("rows[{i}][{j}] is not finite")));
            }
            row.push(v);
            if !r.next_item(b']')? {
                break;
            }
        }
    }
    if row.len() != feature_count {
        return Err(DecodeError::bad(format!(
            "rows[{i}] has {} features, the model expects {feature_count}",
            row.len()
        )));
    }
    Ok(row)
}

/// Renders a `/score` request body (the loadgen client side).
pub fn render_score_request(rows: &[Vec<f64>]) -> String {
    JsonV::obj(vec![(
        "rows",
        JsonV::Arr(
            rows.iter()
                .map(|row| JsonV::Arr(row.iter().map(|&v| JsonV::Float(v)).collect()))
                .collect(),
        ),
    )])
    .render()
}

/// Renders a `/score` response body for the model generation that
/// scored it.
pub fn render_score_response(generation: u64, threshold: f64, results: &[RowScore]) -> String {
    JsonV::obj(vec![
        ("schema", JsonV::Str(RESPONSE_SCHEMA.to_string())),
        ("generation", JsonV::UInt(generation)),
        ("threshold", JsonV::Float(threshold)),
        (
            "results",
            JsonV::Arr(
                results
                    .iter()
                    .map(|r| {
                        JsonV::obj(vec![
                            ("positive", JsonV::Float(r.positive)),
                            ("predicted", JsonV::UInt(r.predicted as u64)),
                            ("confident", JsonV::Bool(r.confident)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Parses a `/score` response body — the loadgen client side and the
/// loopback tests.
pub fn parse_score_response(text: &str) -> Result<ScoreResponse, String> {
    let root = jsonv::parse(text)?;
    match root.get("schema") {
        Some(JsonV::Str(s)) if s == RESPONSE_SCHEMA => {}
        other => {
            return Err(format!(
                "schema must be {RESPONSE_SCHEMA:?}, found {other:?}"
            ))
        }
    }
    let generation = match root.get("generation") {
        Some(JsonV::UInt(g)) => *g,
        other => return Err(format!("generation must be a uint, found {other:?}")),
    };
    let threshold = number(
        root.get("threshold").ok_or("missing threshold")?,
        "threshold",
    )?;
    let Some(JsonV::Arr(raw)) = root.get("results") else {
        return Err("results must be an array".to_string());
    };
    let mut results = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let positive = number(
            item.get("positive")
                .ok_or(format!("results[{i}]: missing positive"))?,
            "positive",
        )?;
        let predicted = match item.get("predicted") {
            Some(JsonV::UInt(v)) => *v as usize,
            other => {
                return Err(format!(
                    "results[{i}].predicted must be a uint, found {other:?}"
                ))
            }
        };
        let confident = match item.get("confident") {
            Some(JsonV::Bool(b)) => *b,
            other => {
                return Err(format!(
                    "results[{i}].confident must be a bool, found {other:?}"
                ))
            }
        };
        results.push(RowScore {
            positive,
            predicted,
            confident,
        });
    }
    Ok(ScoreResponse {
        generation,
        threshold,
        results,
    })
}

/// Renders an error body: `{"error": "<message>"}`.
pub fn render_error(message: &str) -> String {
    JsonV::obj(vec![("error", JsonV::Str(message.to_string()))]).render()
}

/// Renders the `/reload` success body: which generation is now live.
pub fn render_reload_response(generation: u64, tree_count: usize, feature_count: usize) -> String {
    JsonV::obj(vec![
        ("generation", JsonV::UInt(generation)),
        ("model_trees", JsonV::UInt(tree_count as u64)),
        ("model_features", JsonV::UInt(feature_count as u64)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let rows = vec![vec![0.25, 1.0, -3.5], vec![0.1, 0.2, 0.3]];
        let body = render_score_request(&rows);
        let parsed = parse_score_request(&body, 3, 16).expect("valid");
        assert_eq!(parsed.rows, rows);
    }

    #[test]
    fn request_rejections() {
        assert!(parse_score_request("nonsense", 2, 16).is_err());
        assert!(parse_score_request("[]", 2, 16).is_err());
        assert!(parse_score_request("{\"rows\": []}", 2, 16).is_err());
        assert!(parse_score_request("{\"extra\": 1}", 2, 16).is_err());
        // Feature-count mismatch.
        assert!(parse_score_request("{\"rows\": [[1.0]]}", 2, 16).is_err());
        // Non-finite feature.
        assert!(parse_score_request("{\"rows\": [[1.0, null]]}", 2, 16).is_err());
        // Every refusal above is a 400 ...
        for body in [
            "nonsense",
            "{\"rows\": [[1.0, true]]}",
            "{\"rows\": [[1.0, 2.0]] x",
        ] {
            let e = parse_score_request(body, 2, 16).unwrap_err();
            assert_eq!(e.status, 400, "{body}: {e}");
        }
        // ... except the row cap, a 413 that names where it stopped.
        let body = render_score_request(&vec![vec![0.0, 0.0]; 17]);
        let e = parse_score_request(&body, 2, 16).unwrap_err();
        assert_eq!(e.status, 413, "{e}");
        assert!(e.message.contains("per-request limit of 16"), "{e}");
        assert!(parse_score_request(&body, 2, 17).is_ok());
        // The location of a bad value stays in the message.
        let e = parse_score_request("{\"rows\": [[1.0, 2.0], [3.0, 1e400]]}", 2, 16).unwrap_err();
        assert_eq!(e.message, "rows[1][1] is not finite");
    }

    #[test]
    fn response_roundtrips_bitwise() {
        let results = vec![
            RowScore {
                positive: 1.0 / 3.0,
                predicted: 0,
                confident: false,
            },
            RowScore {
                positive: 0.925,
                predicted: 1,
                confident: true,
            },
        ];
        let body = render_score_response(3, 0.75, &results);
        let back = parse_score_response(&body).expect("valid");
        assert_eq!(back.generation, 3);
        assert_eq!(back.threshold, 0.75);
        assert_eq!(back.results, results); // f64 == — shortest roundtrip is exact
    }

    #[test]
    fn response_rejections() {
        assert!(parse_score_response("{}").is_err());
        let good = render_score_response(1, 0.75, &[]);
        assert!(parse_score_response(&good.replace(RESPONSE_SCHEMA, "v0")).is_err());
        // A v1 body (no generation) is refused, not misread.
        let v1 = good
            .replace(RESPONSE_SCHEMA, "survdb-score-response/v1")
            .replace("  \"generation\": 1,\n", "");
        assert!(parse_score_response(&v1).is_err());
    }

    #[test]
    fn error_body_renders() {
        assert_eq!(
            render_error("queue full"),
            "{\n  \"error\": \"queue full\"\n}\n"
        );
    }

    #[test]
    fn reload_body_renders() {
        let body = render_reload_response(2, 10, 3);
        let json = jsonv::parse(&body).expect("valid json");
        assert_eq!(json.get("generation"), Some(&JsonV::UInt(2)));
        assert_eq!(json.get("model_trees"), Some(&JsonV::UInt(10)));
    }
}
