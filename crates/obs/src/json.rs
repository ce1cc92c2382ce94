//! The workspace's one JSON reader: strict RFC 8259, std-only. NDJSON
//! request lines, replay-log lines, tenant manifests and the trace-export
//! tests all go through [`parse`], so a line one decoder accepts is never
//! refused by another. A vector request line is first offered to
//! [`number_array`], which reads an array of finite numbers by the same
//! rules without building a tree and declines everything else to
//! [`parse`].
//!
//! Strict means: no `+1`, `.5`, `5.`, `01`, `inf` or `NaN`; every escape
//! decoded, surrogate pairs included; raw control characters, duplicate
//! keys, trailing bytes and nesting deeper than 64 levels are errors.
//! Numbers keep their lexeme, so [`Json::as_u64`] is exact and
//! [`Json::as_f64`] recovers the bits the writer formatted.
//!
//! ```
//! use mccatch_obs::json::{parse, Json};
//!
//! let line = parse(r#"{"seq": 7, "point": [0.5, -2e3], "name": "Jos\u00e9"}"#)?;
//! assert_eq!(line.get("seq").and_then(Json::as_u64), Some(7));
//! assert_eq!(line.get("name").and_then(Json::as_str), Some("José"));
//! assert!(parse("[+1]").is_err());
//! # Ok::<(), String>(())
//! ```

use std::borrow::Cow;

/// The deepest array/object nesting [`parse`] accepts. No document the
/// workspace reads nests more than four levels; the cap keeps hostile
/// input (a megabyte of `[`) from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value, borrowing from the input text where it can.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its validated lexeme.
    Num(&'a str),
    /// A string with every escape decoded (borrowed when it had none).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object's members in document order; keys are unique.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// The value of member `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as an `f64`, if it is one and is finite (`1e999`
    /// overflows to infinity and is refused).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lexeme) => lexeme.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer lexeme
    /// (no fraction or exponent) that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    /// The decoded string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON text: a single value, optionally surrounded
/// by whitespace.
///
/// # Errors
/// A description of the first violation, with its byte offset.
pub fn parse(text: &str) -> Result<Json<'_>, String> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(r.error("trailing bytes"));
    }
    Ok(value)
}

/// Reads `text` as one non-empty JSON array of finite numbers, with no
/// [`Json`] tree: the serving path's reader for a vector line. It walks
/// the text once with [`parse`]'s own whitespace and number rules, and
/// reads each lexeme as [`Json::as_f64`] does, so every vector it returns
/// holds exactly the bits `parse(text)`'s elements give.
///
/// It never reports an error. On anything else (an element that is not a
/// finite number, `[]`, nesting, trailing bytes, or text outside the
/// grammar) it returns `None`, and the caller falls back to [`parse`],
/// which stays the one place a violation is described.
///
/// ```
/// use mccatch_obs::json::number_array;
///
/// assert_eq!(number_array(" [0.5, -2e3] "), Some(vec![0.5, -2000.0]));
/// for declined in ["[]", "[1e999]", "[1, true]", "[1] x", "1, 2"] {
///     assert_eq!(number_array(declined), None);
/// }
/// ```
pub fn number_array(text: &str) -> Option<Vec<f64>> {
    let mut r = Reader { text, pos: 0 };
    r.skip_ws();
    if !r.eat(b'[') {
        return None;
    }
    let mut out = Vec::new();
    loop {
        r.skip_ws();
        let v: f64 = r.number().ok()?.parse().ok()?;
        if !v.is_finite() {
            return None;
        }
        out.push(v);
        r.skip_ws();
        if r.eat(b']') {
            break;
        }
        if !r.eat(b',') {
            return None;
        }
    }
    r.skip_ws();
    (r.pos == text.len()).then_some(out)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// One value; `depth` counts the containers around it.
    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a JSON value"))
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected a string key"));
                }
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return Err(self.error("expected ':'"));
                }
                members.push((key, self.value(depth)?));
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error("expected ',' or '}'"));
                }
            }
        }
        // Sorting finds a duplicate in O(n log n): a pairwise scan would
        // let one hostile line of many keys cost quadratic time.
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(self.error(&format!("duplicate key {:?}", pair[0])));
        }
        Ok(Json::Obj(members))
    }

    /// One number's lexeme, validated.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.error("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.error("expected an exponent digit"));
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// Consumes a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1;
        // Unescaped runs are copied only once an escape forces a copy.
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = decoded.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("raw control character in string")),
                // Bytes of a multi-byte character are all >= 0x80, so
                // stepping bytewise never stops inside one at a quote.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"));
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .and_then(|hex| {
                hex.iter()
                    .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
            })
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reads_values_escapes_and_exact_numbers() {
        let doc =
            parse(r#" [null, true, false, -0.5e+2, "\b\f\/\u00e9\ud83d\ude00", {}] "#).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(
            items[..3],
            [Json::Null, Json::Bool(true), Json::Bool(false)]
        );
        assert_eq!(items[3].as_f64(), Some(-50.0));
        assert_eq!(items[4].as_str(), Some("\u{8}\u{c}/é😀"));
        assert_eq!(items[5], Json::Obj(Vec::new()));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        for not_u64 in ["18446744073709551616", "-1", "1.0", "1e3"] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        assert_eq!(parse("1e999").unwrap().as_f64(), None);
    }

    #[test]
    fn rejects_everything_outside_the_grammar() {
        let short = [
            "", "+1", ".5", "5.", "01", "-", "1e", "inf", "NaN", "[1,]", "[1 2]", "[1", "[1] x",
            "tru", "{a: 1}", "\"open", r#""\q""#,
        ];
        let long = [
            r#""\u12""#,
            r#""\u+123""#,
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            "\"tab\there\"",
            r#"{"a" 1}"#,
            r#"{"a": 1,}"#,
        ];
        for bad in short.into_iter().chain(long) {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting deeper"));
        assert!(parse(&"[".repeat(1 << 20))
            .unwrap_err()
            .contains("nesting deeper"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Half the bytes come from JSON's own syntax, so short inputs
        /// get past the first byte into the grammar.
        #[test]
        fn arbitrary_bytes_never_panic(picks in prop::collection::vec(0usize..512, 0..64)) {
            const SYNTAX: &[u8] = b"[]{}\",:\\/u0123456789.eE+-tfnrl ";
            let bytes: Vec<u8> = picks
                .into_iter()
                .map(|n| u8::try_from(n).unwrap_or(SYNTAX[n % SYNTAX.len()]))
                .collect();
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        /// Characters drawn evenly from four classes: control, printable
        /// ASCII, the rest of the BMP, and beyond it.
        #[test]
        fn escaped_strings_read_back(picks in prop::collection::vec((0u32..4, 0u32..1 << 20), 0..24)) {
            let s: String = picks
                .into_iter()
                .filter_map(|(class, n)| {
                    let start = [0, 0x20, 0x80, 0x1_0000][class as usize];
                    let span = [0x20, 0x5f, 0xff80, 1 << 20][class as usize];
                    char::from_u32(start + n % span)
                })
                .collect();
            let text = format!("\"{}\"", crate::json_escape(&s));
            let back = parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(back.as_str(), Some(s.as_str()));
        }

        #[test]
        fn finite_floats_read_back_bit_exactly(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            prop_assume!(v.is_finite());
            let back = parse(&format!("{v}")).map_err(TestCaseError::fail)?.as_f64();
            prop_assert_eq!(back.map(f64::to_bits), Some(bits));
        }
    }
}
