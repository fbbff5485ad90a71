//! A minimal deterministic JSON tree: renderer and parser.
//!
//! `obs` sits below every other workspace crate, so it cannot use
//! `survdb::json`; this module mirrors its rendering rules (two-space
//! pretty printing, keys in push order, the one float rule: finite
//! integral values keep a `.1` decimal, everything else prints Rust's
//! shortest roundtrip form, non-finite becomes `null`).
//!
//! The parsing side is the workspace's one JSON grammar. [`Reader`]
//! is a forward-only lexer (whitespace, expected bytes, strings,
//! numbers, end of input) with linear work per input byte; [`parse`]
//! builds a [`JsonV`] tree on it, nesting at most [`MAX_DEPTH`] levels.
//! Model files, `/reload` bodies, responses and every schema check go
//! through [`parse`]; `survd::wire` drives the [`Reader`] directly to
//! decode `/score` bodies without building a tree.

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonV {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (renders without a decimal point).
    UInt(u64),
    /// A float (renders with at least one decimal; non-finite → null).
    Float(f64),
    /// A string (escaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonV>),
    /// An object; keys render in push order.
    Obj(Vec<(String, JsonV)>),
}

impl JsonV {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, JsonV)>) -> JsonV {
        JsonV::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders as pretty-printed JSON (two-space indent) with a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders as single-line compact JSON (no spaces, no trailing
    /// newline) — the JSONL form. Value rendering (float rule, string
    /// escapes) matches [`JsonV::render`] exactly.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonV::Null => out.push_str("null"),
            JsonV::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonV::UInt(v) => out.push_str(&v.to_string()),
            JsonV::Float(v) => push_f64(out, *v),
            JsonV::Str(s) => push_escaped(out, s),
            JsonV::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonV::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&JsonV> {
        match self {
            JsonV::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonV::Null => out.push_str("null"),
            JsonV::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonV::UInt(v) => out.push_str(&v.to_string()),
            JsonV::Float(v) => push_f64(out, *v),
            JsonV::Str(s) => push_escaped(out, s),
            JsonV::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            JsonV::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    push_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{v:.1}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        out.push_str("null");
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Reader::value`] (and so [`parse`])
/// accepts. The committed artifacts, goldens and model files nest at
/// most 7 levels; the limit bounds the parser's recursion, so a hostile
/// body gets [`JsonError::TooDeep`] instead of overflowing a thread's
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Why JSON text was refused, with the byte offset where reading
/// stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON.
    Syntax {
        /// Byte offset of the offending input.
        pos: usize,
        /// What was expected or found there.
        message: String,
    },
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the container that crossed the limit.
        pos: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax { pos, message } => write!(f, "{message} at byte {pos}"),
            JsonError::TooDeep { pos } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {pos}")
            }
        }
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Parses JSON text into a [`JsonV`] tree. Object key order is
/// preserved. Numbers without `.`/`e` and without a sign parse as
/// [`JsonV::UInt`]; everything else numeric parses as [`JsonV::Float`].
/// Nesting is limited to [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonV, String> {
    let mut r = Reader::new(text);
    r.skip_ws();
    let value = r.value()?;
    r.end()?;
    Ok(value)
}

/// A forward-only lexer over JSON text: the one JSON grammar of the
/// workspace. [`parse`] builds trees with it; a decoder that knows its
/// document's shape (the `/score` body in `survd::wire`) drives the
/// same primitives directly, in one pass and without a tree. Every
/// method reads at the current position and, on success, leaves the
/// reader just past what it consumed; only [`Reader::skip_ws`],
/// [`Reader::next_item`] and [`Reader::end`] skip whitespace.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// The byte at the current position, if any.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it is the next byte; reports whether it was.
    pub fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    /// Consumes `b`, or fails if the next byte is anything else.
    pub fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {:?}",
                b as char,
                self.peek().map(char::from)
            )))
        }
    }

    /// Ends one item of an array or object: skips whitespace, then
    /// consumes `,` and the whitespace after it (more items follow:
    /// `true`) or `close` (the list ends: `false`).
    pub fn next_item(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(false);
        }
        if self.eat(b',') {
            self.skip_ws();
            return Ok(true);
        }
        Err(self.error(format!(
            "expected ',' or '{}', found {:?}",
            close as char,
            self.peek().map(char::from)
        )))
    }

    /// Skips trailing whitespace and fails unless the input ends there.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing data"))
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            pos: self.pos,
            message: message.into(),
        }
    }

    /// Reads a string literal. Borrows from the input unless the
    /// literal holds escapes; O(1) work per input byte either way.
    pub fn string(&mut self) -> Result<std::borrow::Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.eat(b'"') {
            return Ok(std::borrow::Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(std::borrow::Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    let run = self.pos;
                    self.skip_plain();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Advances over string bytes that need no decoding. UTF-8
    /// continuation and lead bytes are never `"` or `\`, so the run
    /// ends on a character boundary of the (already valid) input.
    fn skip_plain(&mut self) {
        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = self
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                let code = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                out.push(char::from_u32(code).ok_or_else(|| self.error("surrogate \\u escape"))?);
                self.pos += 4;
            }
            other => return Err(self.error(format!("bad escape {:?}", other.map(char::from)))),
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads a number: [`JsonV::UInt`] when the literal has no `.`,
    /// `e`, `E` or `-`, else [`JsonV::Float`]. The literal is the
    /// longest run of digits and `.eE+-` from a leading `-` or digit;
    /// what it means is decided by Rust's `u64`/`f64` parsers.
    pub fn number(&mut self) -> Result<JsonV, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error(format!("unexpected {:?}", self.peek().map(char::from))));
        }
        let start = self.pos;
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' | b'+' => {}
                b'.' | b'e' | b'E' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let parsed = if float {
            text.parse::<f64>()
                .map(JsonV::Float)
                .map_err(|e| format!("bad number {text}: {e}"))
        } else {
            text.parse::<u64>()
                .map(JsonV::UInt)
                .map_err(|e| format!("bad integer {text}: {e}"))
        };
        parsed.map_err(|message| JsonError::Syntax {
            pos: start,
            message,
        })
    }

    /// Reads one complete value into a tree, nesting at most
    /// [`MAX_DEPTH`] levels below the current position.
    pub fn value(&mut self) -> Result<JsonV, JsonError> {
        self.nested(0)
    }

    fn literal(&mut self, word: &str, value: JsonV) -> Result<JsonV, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn nested(&mut self, depth: usize) -> Result<JsonV, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonV::Null),
            Some(b't') => self.literal("true", JsonV::Bool(true)),
            Some(b'f') => self.literal("false", JsonV::Bool(false)),
            Some(b'"') => Ok(JsonV::Str(self.string()?.into_owned())),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(JsonError::TooDeep { pos: self.pos }),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            _ => self.number(),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonV, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonV::Arr(items));
        }
        loop {
            items.push(self.nested(depth)?);
            if !self.next_item(b']')? {
                return Ok(JsonV::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonV, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonV::Obj(fields));
        }
        loop {
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.nested(depth)?;
            fields.push((key, value));
            if !self.next_item(b'}')? {
                return Ok(JsonV::Obj(fields));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_like_survdb_json() {
        let v = JsonV::obj(vec![
            ("name", JsonV::Str("x".into())),
            ("points", JsonV::Arr(vec![JsonV::UInt(1), JsonV::UInt(2)])),
            ("empty", JsonV::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"name\": \"x\",\n  \"points\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}\n"
        );
        let mut f = String::new();
        push_f64(&mut f, 17.0);
        assert_eq!(f, "17.0");
    }

    #[test]
    fn compact_rendering_matches_pretty_values() {
        let v = JsonV::obj(vec![
            ("name", JsonV::Str("x y".into())),
            (
                "points",
                JsonV::Arr(vec![JsonV::UInt(1), JsonV::Float(2.5)]),
            ),
            ("empty", JsonV::Obj(vec![])),
            ("flag", JsonV::Bool(false)),
        ]);
        assert_eq!(
            v.render_compact(),
            "{\"name\":\"x y\",\"points\":[1,2.5],\"empty\":{},\"flag\":false}"
        );
        // Compact output reparses to the same tree as pretty output.
        assert_eq!(parse(&v.render_compact()).unwrap(), v);
    }

    #[test]
    fn parse_roundtrips_render() {
        let v = JsonV::obj(vec![
            ("a", JsonV::UInt(7)),
            ("b", JsonV::Float(0.125)),
            ("c", JsonV::Str("two\nlines \"quoted\"".into())),
            (
                "d",
                JsonV::Arr(vec![JsonV::Null, JsonV::Bool(true), JsonV::Obj(vec![])]),
            ),
        ]);
        let text = v.render();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn parse_distinguishes_uint_and_float() {
        assert_eq!(parse("42").unwrap(), JsonV::UInt(42));
        assert_eq!(parse("42.0").unwrap(), JsonV::Float(42.0));
        assert_eq!(parse("-1").unwrap(), JsonV::Float(-1.0));
        assert_eq!(parse("1e3").unwrap(), JsonV::Float(1000.0));
    }

    #[test]
    fn numbers_keep_their_uint_float_split() {
        let num = |text: &str| Reader::new(text).number();
        assert_eq!(num("0"), Ok(JsonV::UInt(0)));
        assert_eq!(num("18446744073709551615"), Ok(JsonV::UInt(u64::MAX)));
        assert!(num("18446744073709551616").is_err());
        assert_eq!(num("1."), Ok(JsonV::Float(1.0)));
        assert_eq!(num("1e400"), Ok(JsonV::Float(f64::INFINITY)));
        assert_eq!(num("5e-324"), Ok(JsonV::Float(5e-324)));
        let Ok(JsonV::Float(neg_zero)) = num("-0") else {
            panic!("-0 is a float")
        };
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        for bad in ["-", "+1", ".5", "1+2", "1e", "x"] {
            assert!(num(bad).is_err(), "{bad}");
        }
        // The literal stops at the first byte outside `0-9.eE+-`.
        let mut r = Reader::new("12]");
        assert_eq!(r.number(), Ok(JsonV::UInt(12)));
        assert_eq!(r.peek(), Some(b']'));
    }

    #[test]
    fn strings_borrow_plain_text_and_decode_escapes() {
        let mut r = Reader::new("\"plain é\" \"a\\u00e9\\n\\\"ü\\/\" ");
        assert!(matches!(
            r.string(),
            Ok(std::borrow::Cow::Borrowed("plain é"))
        ));
        r.skip_ws();
        assert_eq!(r.string().unwrap(), "aé\n\"ü/");
        assert_eq!(r.end(), Ok(()));
        for bad in ["\"open", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"", "x"] {
            assert!(Reader::new(bad).string().is_err(), "{bad}");
        }
        // Linear: a 4 MiB string (quadratic before) with a multi-byte
        // tail parses back to itself.
        let long = format!("{}ß", "x".repeat(4 << 20));
        assert_eq!(parse(&format!("\"{long}\"")), Ok(JsonV::Str(long)));
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            Reader::new(&nest(MAX_DEPTH + 1)).value(),
            Err(JsonError::TooDeep { pos: MAX_DEPTH })
        );
        // 20,000 levels (a 100 KB body) is refused, not a stack
        // overflow.
        let deep = "{\"a\":".repeat(20_000);
        assert!(matches!(
            Reader::new(&deep).value(),
            Err(JsonError::TooDeep { .. })
        ));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn repository_documents_nest_well_below_the_limit() {
        fn depth(v: &JsonV) -> usize {
            match v {
                JsonV::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                JsonV::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
                _ => 0,
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths = vec![root.join("BENCHMARK.json")];
        for dir in ["artifacts", "tests/golden"] {
            for entry in std::fs::read_dir(root.join(dir)).expect("directory exists") {
                let path = entry.expect("entry").path();
                if path.extension().is_some_and(|e| e == "json") {
                    paths.push(path);
                }
            }
        }
        assert!(paths.len() >= 8, "{paths:?}");
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("readable");
            let v = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                depth(&v) <= MAX_DEPTH / 8,
                "{} nests {}",
                path.display(),
                depth(&v)
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
