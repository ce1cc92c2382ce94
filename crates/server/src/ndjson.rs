//! NDJSON line codecs: parsing request lines into points and rendering
//! response objects, with no JSON dependency (the workspace is
//! std-only by design).
//!
//! The request protocol is newline-delimited: one point per line in,
//! one JSON object per line out, errors reported **per line** so a
//! single malformed event never aborts the rest of the batch. A JSON
//! line is read by the workspace's one strict reader,
//! [`mccatch_obs::json`], and decoded by [`PersistPoint::from_json`] —
//! the grammar and decoder the replay log uses, so a point the wire
//! accepts is a point the log can replay. A vector line that is an
//! array of finite numbers skips the tree: [`json::number_array`] reads
//! it by the same grammar into the same bits.

use mccatch_obs::json;
use mccatch_persist::PersistPoint;
use mccatch_stream::ScoredEvent;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parses one request line into a point. Implementations must be cheap
/// and infallible in the panic sense — malformed input is an `Err`
/// string that becomes a per-line error object in the response.
pub type LineParser<P> = Arc<dyn Fn(&str) -> Result<P, String> + Send + Sync>;

/// Renders one [`ScoredEvent`] as its NDJSON object — the event fields
/// verbatim. This is the **single** definition of the scored-event wire
/// format: `/ingest` responses and the CLI's `--stream --format json`
/// lines both render through it, so the two surfaces cannot drift
/// apart.
pub fn scored_event_json(e: &ScoredEvent) -> String {
    // A typical line is ~90 bytes: allocate once.
    let mut out = String::with_capacity(128);
    write_scored_event_json(&mut out, e);
    out
}

/// Appends [`scored_event_json`]`(e)` to `out`, with no intermediate
/// `String`: the form a response body is rendered with.
pub fn write_scored_event_json(out: &mut String, e: &ScoredEvent) {
    let _ = write!(
        out,
        "{{\"seq\": {}, \"tick\": {}, \"score\": ",
        e.seq, e.tick
    );
    write_json_f64(out, e.score);
    let _ = write!(
        out,
        ", \"generation\": {}, \"flagged\": {}}}",
        e.generation, e.flagged
    );
}

/// Parses one NDJSON line into a vector point. Accepts a JSON array
/// (`[1.0, 2.5]`) and, for `curl`-friendliness, bare separated finite
/// floats (`1.0, 2.5` or `1.0 2.5`). Either way every coordinate must
/// be a finite JSON number: `inf`, `NaN`, `+1`, `.5`, `5.`, `01` and
/// overflow literals like `1e999` are refused at the protocol boundary,
/// or a client could smuggle non-finite coordinates into the sliding
/// window and poison the next refit.
pub fn parse_vector_line(line: &str) -> Result<Vec<f64>, String> {
    let line = line.trim();
    let coords = if line.starts_with('[') {
        // The tree-free reader accepts only an array of finite numbers.
        // Every other line takes the tree path, which exists here only to
        // word the per-line error: one grammar, one set of messages.
        match json::number_array(line) {
            Some(coords) => coords,
            None => Vec::<f64>::from_json(&json::parse(line)?)?,
        }
    } else {
        line.split(|c: char| c == ',' || c.is_whitespace() || c == ';')
            .filter(|t| !t.is_empty())
            .map(|t| {
                json::parse(t)
                    .ok()
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("not a finite JSON number: {t:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    if coords.is_empty() {
        return Err("empty vector".to_owned());
    }
    Ok(coords)
}

/// A [`LineParser`] over [`parse_vector_line`] that additionally
/// enforces a fixed dimensionality, turning a wrong-arity vector into a
/// per-line error instead of a malformed query reaching the model
/// (vector indexes assume queries match the reference dimensionality).
/// The HTTP serving tier uses this with the dimensionality of the
/// seeded window.
pub fn vector_parser(dim: Option<usize>) -> LineParser<Vec<f64>> {
    Arc::new(move |line| {
        let v = parse_vector_line(line)?;
        match dim {
            Some(d) if v.len() != d => Err(format!("expected {d} coordinates, found {}", v.len())),
            _ => Ok(v),
        }
    })
}

/// Like [`vector_parser`] with no up-front dimensionality: the first
/// line it accepts pins the arity for the rest of its life, so even an
/// unseeded server converges on one dimensionality instead of letting
/// mixed-arity traffic into the window (where the next refit would
/// have to fit an index over it).
pub fn vector_parser_auto() -> LineParser<Vec<f64>> {
    let dim = std::sync::OnceLock::new();
    Arc::new(move |line| {
        let v = parse_vector_line(line)?;
        let d = *dim.get_or_init(|| v.len());
        if v.len() != d {
            return Err(format!("expected {d} coordinates, found {}", v.len()));
        }
        Ok(v)
    })
}

/// Parses one NDJSON line into a string point. Accepts a JSON string
/// (`"alice"`, any RFC 8259 escape, surrogate pairs included) or, for
/// convenience, the raw trimmed line.
pub fn parse_string_line(line: &str) -> Result<String, String> {
    let line = line.trim();
    if line.starts_with('"') {
        String::from_json(&json::parse(line)?)
    } else {
        Ok(line.to_owned())
    }
}

/// Renders an `f64` as a JSON value: the shortest round-trip decimal
/// when finite (so a client parsing it back recovers the identical
/// bits), `null` otherwise (JSON has no Infinity/NaN literals).
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    write_json_f64(&mut out, v);
    out
}

/// Appends [`json_f64`]`(v)` to `out`, with no intermediate `String`.
pub fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Splits a request body into its non-blank NDJSON lines, yielding the
/// 1-based line number alongside the raw bytes (the number appears in
/// per-line error objects so clients can pinpoint the offender).
pub(crate) fn body_lines(body: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    body.split(|&b| b == b'\n')
        .enumerate()
        .map(|(i, line)| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            (i + 1, line)
        })
        .filter(|(_, line)| !line.iter().all(u8::is_ascii_whitespace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `parse_vector_line` as it read every line before the tree-free
    /// reader: the oracle of the property test below.
    fn tree_path(line: &str) -> Result<Vec<f64>, String> {
        let line = line.trim();
        let coords = if line.starts_with('[') {
            Vec::<f64>::from_json(&json::parse(line)?)?
        } else {
            line.split(|c: char| c == ',' || c.is_whitespace() || c == ';')
                .filter(|t| !t.is_empty())
                .map(|t| {
                    json::parse(t)
                        .ok()
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| format!("not a finite JSON number: {t:?}"))
                })
                .collect::<Result<_, _>>()?
        };
        if coords.is_empty() {
            return Err("empty vector".to_owned());
        }
        Ok(coords)
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    /// JSON's own syntax bytes, which mutations draw from so that a
    /// mutated line stays near the grammar.
    const SYNTAX: &[u8] = b"[]{}\",:\\/u0123456789.eE+-tfnrl ";

    /// Whitespace, JSON's and otherwise: `str::trim` strips the last two,
    /// the JSON grammar does not.
    const SPACE: [&str; 8] = ["", " ", "  ", "\t", "\r", "\n", "\u{b}", "\u{a0}"];

    /// A vector line: an array of numbers in shortest, exponent and
    /// 17-digit forms, `-0`, small integers and the odd non-number, with
    /// odd whitespace, then up to three draws of a byte mutation (replace,
    /// insert, delete or truncate, each one draw in twelve).
    fn vector_line() -> impl Strategy<Value = String> {
        let element = (0u64..u64::MAX, 0usize..7, 0usize..2 * SPACE.len());
        let mutation = (0usize..12, 0usize..256, 0usize..SYNTAX.len());
        (
            prop::collection::vec(element, 0..6),
            0usize..SPACE.len(),
            prop::collection::vec(mutation, 0..4),
        )
            .prop_map(|(elements, pad, mutations)| {
                let items: Vec<String> = elements
                    .iter()
                    .map(|&(bits, form, space)| {
                        let v = f64::from_bits(bits);
                        let text = match form {
                            0 => format!("{v}"),
                            1 => format!("{v:e}"),
                            2 => format!("{v:.16e}"),
                            3 => "-0".to_owned(),
                            4 => format!("{}", bits as i64 % 1000),
                            5 => format!("{}", (bits % 1000) as f64 / 8.0),
                            _ => ["1e999", "true", "null", "[1]", "\"1\"", "+1", ".5", "01"]
                                [bits as usize % 8]
                                .to_owned(),
                        };
                        // JSON's whitespace, but one draw in eight not.
                        let after = match space {
                            14.. => SPACE[space - 8],
                            _ => SPACE[space / 2 % 6],
                        };
                        format!("{}{text}{after}", SPACE[space % 6])
                    })
                    .collect();
                let mut line = format!("{0}[{1}]{0}", SPACE[pad], items.join(",")).into_bytes();
                for (kind, at, byte) in mutations {
                    let at = at % (line.len() + 1);
                    match kind {
                        0 if at < line.len() => line[at] = SYNTAX[byte],
                        1 => line.insert(at, SYNTAX[byte]),
                        2 if at < line.len() => {
                            line.remove(at);
                        }
                        3 => line.truncate(at),
                        _ => {}
                    }
                }
                String::from_utf8_lossy(&line).into_owned()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The tree-free reader declines a line or reads exactly the bits
        /// the tree reads, and `parse_vector_line` answers every line,
        /// value or error text, as the tree path alone did.
        #[test]
        fn array_reader_agrees_with_the_tree_path(line in vector_line()) {
            if let Some(v) = json::number_array(&line) {
                let tree = json::parse(&line).map_err(TestCaseError::fail)?;
                let want = Vec::<f64>::from_json(&tree).map_err(TestCaseError::fail)?;
                prop_assert_eq!(bits(v), bits(want));
            }
            prop_assert_eq!(parse_vector_line(&line).map(bits), tree_path(&line).map(bits));
        }

        /// Arbitrary bytes, half from JSON's syntax.
        #[test]
        fn hostile_lines_answer_as_the_tree_path(picks in prop::collection::vec(0usize..512, 0..48)) {
            let bytes: Vec<u8> = picks
                .into_iter()
                .map(|n| u8::try_from(n).unwrap_or(SYNTAX[n % SYNTAX.len()]))
                .collect();
            let line = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(parse_vector_line(&line).map(bits), tree_path(&line).map(bits));
        }
    }

    #[test]
    fn vector_lines_accept_json_arrays_and_bare_csv() {
        assert_eq!(parse_vector_line("[1.0, 2.5]"), Ok(vec![1.0, 2.5]));
        assert_eq!(parse_vector_line("[-3e2]"), Ok(vec![-300.0]));
        assert_eq!(parse_vector_line("1.0, 2.5"), Ok(vec![1.0, 2.5]));
        assert_eq!(parse_vector_line("1 2;3"), Ok(vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn vector_lines_reject_garbage() {
        for bad in [
            "[1.0, 2.5",
            "[]",
            "",
            "[1, true]",
            "[inf]",
            "[NaN]",
            "{\"x\": 1}",
            // f64::parse alone would take all three of these: a leading
            // plus, and overflow literals that parse to infinity.
            "[+12]",
            "[1e999]",
            "[-1e999]",
        ] {
            assert!(parse_vector_line(bad).is_err(), "{bad:?} must be rejected");
        }
        // One strict grammar, in an array or bare: no leading zero,
        // trailing comma, missing separator or bare-dot float.
        for bad in ["[01]", "[1,]", "[1 2]", ".5", "5.", "01"] {
            assert!(parse_vector_line(bad).is_err(), "{bad:?} must be rejected");
        }
        // Exponent signs inside the number are legal JSON and stay.
        assert_eq!(parse_vector_line("[1e+2, 1e-2]"), Ok(vec![100.0, 0.01]));
    }

    #[test]
    fn vector_parser_auto_pins_the_first_accepted_arity() {
        let p = vector_parser_auto();
        assert!(p("nonsense").is_err(), "a rejected line must not pin");
        assert_eq!(p("[1.0, 2.0]"), Ok(vec![1.0, 2.0]));
        assert!(p("[1.0]").unwrap_err().contains("expected 2"));
        assert_eq!(p("[3.0, 4.0]"), Ok(vec![3.0, 4.0]));
    }

    #[test]
    fn vector_parser_enforces_dimensionality() {
        let p = vector_parser(Some(2));
        assert_eq!(p("[1.0, 2.0]"), Ok(vec![1.0, 2.0]));
        assert!(p("[1.0]").unwrap_err().contains("expected 2"));
        assert!(p("[1.0, 2.0, 3.0]").unwrap_err().contains("found 3"));
        let free = vector_parser(None);
        assert_eq!(free("[1.0]"), Ok(vec![1.0]));
    }

    #[test]
    fn string_lines_accept_json_strings_and_raw_text() {
        assert_eq!(parse_string_line("\"alice\""), Ok("alice".to_owned()));
        assert_eq!(parse_string_line("bob"), Ok("bob".to_owned()));
        assert_eq!(
            parse_string_line("\"a\\\"b\\\\c\\u0041\""),
            Ok("a\"b\\cA".to_owned())
        );
        // What Python's default json.dumps sends for non-ASCII text and
        // the short control escapes.
        assert_eq!(
            parse_string_line(r#""Jos\u00e9 \ud83d\ude00""#),
            Ok("José 😀".to_owned())
        );
        assert_eq!(
            parse_string_line(r#""back\bspace\f""#),
            Ok("back\u{8}space\u{c}".to_owned())
        );
        assert!(parse_string_line("\"unterminated").is_err());
        assert!(parse_string_line("\"a\" trailing").is_err());
        assert!(parse_string_line("\"bad\\q\"").is_err());
    }

    #[test]
    fn json_f64_round_trips_and_nulls_nonfinite() {
        let v = 0.1 + 0.2;
        assert_eq!(json_f64(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn writers_append_what_the_string_forms_return() {
        let mut body = "head\n".to_owned();
        write_json_f64(&mut body, 0.1 + 0.2);
        write_json_f64(&mut body, f64::NEG_INFINITY);
        assert_eq!(body, format!("head\n{}null", json_f64(0.1 + 0.2)));
        for score in [1.25, f64::INFINITY] {
            let e = ScoredEvent {
                seq: 7,
                tick: 9,
                score,
                generation: 2,
                flagged: true,
            };
            let mut body = "head\n".to_owned();
            write_scored_event_json(&mut body, &e);
            assert_eq!(body, format!("head\n{}", scored_event_json(&e)));
            assert_eq!(
                scored_event_json(&e),
                format!(
                    "{{\"seq\": 7, \"tick\": 9, \"score\": {}, \"generation\": 2, \"flagged\": true}}",
                    json_f64(score)
                )
            );
        }
    }

    #[test]
    fn body_lines_skip_blanks_and_number_from_one() {
        let body = b"[1]\r\n\n  \n[2]\n";
        let lines: Vec<(usize, &[u8])> = body_lines(body).collect();
        assert_eq!(lines, vec![(1, b"[1]".as_slice()), (4, b"[2]".as_slice())]);
    }
}
