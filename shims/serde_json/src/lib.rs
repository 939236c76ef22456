//! Offline stand-in for `serde_json`.
//!
//! Renders the local `serde` shim's [`Value`] tree as JSON text and parses
//! JSON text back into it. Covers the JSON grammar this workspace produces:
//! objects, arrays, strings (with escapes), numbers, booleans and null.

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Serialize a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Serialize a value to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    T::from_value(&v)
}

/// Deserialize a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| Error::msg("invalid UTF-8"))?;
    from_str(s)
}

// ------------------------------------------------------------------ writer

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` prints the shortest representation that round-trips.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------------ parser

/// Deepest array/object nesting the parser accepts (serde_json's own
/// limit): the parser recurses once per level, so deeper input is an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Consume one byte if it is any of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.bytes.get(self.pos).is_some_and(|b| set.contains(b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.nested(Self::parse_object),
            b'[' => self.nested(Self::parse_array),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_lit("true", Value::Bool(true)),
            b'f' => self.parse_lit("false", Value::Bool(false)),
            b'n' => self.parse_lit("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::msg("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::msg("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::msg("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(Error::msg("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(Error::msg("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::msg("truncated UTF-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| Error::msg("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    /// Scan one number of the JSON grammar
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`; any other spelling
    /// (`+5`, `01`, `1.`, `.5`, `1e`) is an error, not a `str::parse` guess.
    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        self.eat(b"-");
        let int_start = self.pos;
        let int_digits = self.digits();
        let leading_zero = int_digits > 1 && self.bytes[int_start] == b'0';
        let fraction_ok = !self.eat(b".") || self.digits() > 0;
        let exponent_ok = !self.eat(b"eE") || {
            self.eat(b"+-");
            self.digits() > 0
        };
        if int_digits == 0 || leading_zero || !fraction_ok || !exponent_ok {
            return Err(Error::msg(format!("invalid number at byte {start}")));
        }
        // The grammar admits only ASCII, so this slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg("invalid float"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            let magnitude = stripped
                .parse::<u64>()
                .map_err(|_| Error::msg("invalid integer"))?;
            i64::try_from(-i128::from(magnitude))
                .map(Value::Int)
                .map_err(|_| Error::msg("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg("invalid integer"))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_through_text() {
        let v = vec![1.5f32, -2.0, 0.25];
        let s = to_string(&v).unwrap();
        let back: Vec<f32> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    /// Artifact and checkpoint byte-identity rests on every finite f32
    /// surviving text bit for bit: a strided sweep over all bit patterns
    /// (every sign and exponent), plus the edges the stride can miss.
    #[test]
    fn float_precision_survives() {
        let v = vec![0.1f32, 1.0e-7, 3.402_823_5e38, f32::MIN_POSITIVE];
        let back: Vec<f32> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let sweep: Vec<f32> = (0..=u32::MAX)
            .step_by(4099)
            .map(f32::from_bits)
            .filter(|f| f.is_finite())
            .chain([-0.0, f32::from_bits(1), f32::MAX, f32::MIN])
            .collect();
        assert!(sweep.len() > 1_000_000);
        for chunk in sweep.chunks(1 << 16) {
            let back: Vec<f32> = from_str(&to_string(&chunk.to_vec()).unwrap()).unwrap();
            assert_eq!(bits(&back), bits(chunk));
        }
    }

    #[test]
    fn i64_bounds_parse_and_overflow_fails() {
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<i64>("9223372036854775807").unwrap(), i64::MAX);
        assert!(from_str::<i64>("-9223372036854775809").is_err());
        assert!(from_str::<i64>("9223372036854775808").is_err());
    }

    #[test]
    fn floats_no_integer_type_can_hold_fail() {
        assert!(from_str::<u8>("1e3").is_err());
        assert!(from_str::<u64>("1e20").is_err());
        assert!(from_str::<i32>("-3e9").is_err());
        assert!(from_str::<usize>("-1.0").is_err());
        assert_eq!(from_str::<u8>("2e2").unwrap(), 200);
        assert_eq!(from_str::<i64>("-1e3").unwrap(), -1000);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<serde::Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<serde::Value>(&nested(MAX_DEPTH + 1)).is_err());
        assert!(from_str::<serde::Value>(&"[".repeat(100_000)).is_err());
        assert!(from_str::<serde::Value>(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Weights {
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Checkpoint {
        name: String,
        seed: u64,
        weights: Vec<Weights>,
    }

    /// Damaged checkpoint text fails closed: every truncation is an error,
    /// a flipped byte never panics, and a flipped structural byte is an
    /// error.
    #[test]
    fn damaged_checkpoint_text_is_an_error_not_a_panic() {
        let checkpoint = Checkpoint {
            name: "b0.h0.q".into(),
            seed: 41,
            weights: vec![
                Weights {
                    rows: 2,
                    cols: 3,
                    data: vec![0.5, -1.25e-3, 3.0, 0.0, -0.0, 7.5e20],
                },
                Weights {
                    rows: 1,
                    cols: 1,
                    data: vec![f32::MIN_POSITIVE],
                },
            ],
        };
        let text = to_vec(&checkpoint).unwrap();
        assert_eq!(from_slice::<Checkpoint>(&text).unwrap(), checkpoint);
        for len in 0..text.len() {
            assert!(
                from_slice::<Checkpoint>(&text[..len]).is_err(),
                "prefix {len}"
            );
        }
        for (i, &byte) in text.iter().enumerate() {
            for bit in 0..8 {
                let mut flipped = text.clone();
                flipped[i] ^= 1 << bit;
                let parsed = from_slice::<Checkpoint>(&flipped);
                if b"{}[]:,\"".contains(&byte) {
                    assert!(parsed.is_err(), "byte {i} bit {bit}");
                }
            }
        }
    }

    mod fail_closed {
        use super::*;
        use proptest::prelude::*;

        /// Bytes drawn from JSON's structural and literal alphabet, so
        /// random input reaches deep into the parser, not just its first
        /// byte; every fourth byte is arbitrary.
        fn json_ish(picks: &[u32]) -> Vec<u8> {
            const ALPHABET: &[u8] = b"{}[]:,\"\\ -+.0123456789eEtrufalsn\\u00e9x";
            picks
                .iter()
                .map(|&p| match p % 4 {
                    0 => (p >> 8) as u8,
                    _ => ALPHABET[(p >> 8) as usize % ALPHABET.len()],
                })
                .collect()
        }

        fn checkpoint(seed: u64, data: &[f32]) -> Checkpoint {
            Checkpoint {
                name: format!("b{seed}.h\"{}\\q\u{e9}", seed % 7),
                seed,
                weights: data
                    .chunks(3)
                    .map(|c| Weights {
                        rows: 1,
                        cols: c.len(),
                        data: c.to_vec(),
                    })
                    .collect(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary and JSON-shaped bytes: `from_slice` and `from_str`
            /// return a value or a typed error, never a panic.
            #[test]
            fn arbitrary_input_never_panics(
                picks in proptest::collection::vec(0u32..u32::MAX, 0..120),
            ) {
                let raw: Vec<u8> = picks.iter().map(|&p| p as u8).collect();
                for bytes in [raw, json_ish(&picks)] {
                    let _ = from_slice::<serde::Value>(&bytes);
                    let _ = from_slice::<Checkpoint>(&bytes);
                    if let Ok(text) = std::str::from_utf8(&bytes) {
                        let _ = from_str::<serde::Value>(text);
                        let _ = from_str::<Vec<(String, f64)>>(text);
                    }
                }
            }

            /// Every strict prefix of a valid document is an error.
            #[test]
            fn truncated_documents_are_errors(
                seed in 0u64..1000,
                data in proptest::collection::vec(-1.0e6f32..1.0e6, 0..12),
                cut in 0.0f64..1.0,
            ) {
                let cp = checkpoint(seed, &data);
                let text = to_vec(&cp).unwrap();
                prop_assert_eq!(from_slice::<Checkpoint>(&text).unwrap(), cp);
                let keep = (cut * text.len() as f64) as usize;
                prop_assert!(from_slice::<Checkpoint>(&text[..keep]).is_err(), "prefix {}", keep);
                prop_assert!(from_slice::<serde::Value>(&text[..keep]).is_err(), "prefix {}", keep);
            }

            /// A flipped bit gives a value or a typed error, never a panic;
            /// a flipped structural byte is always an error.
            #[test]
            fn bit_flipped_documents_never_panic(
                seed in 0u64..1000,
                data in proptest::collection::vec(-1.0e6f32..1.0e6, 0..12),
                at in 0.0f64..1.0,
                bit in 0u8..8,
            ) {
                let mut text = to_vec(&checkpoint(seed, &data)).unwrap();
                let i = ((at * text.len() as f64) as usize).min(text.len() - 1);
                let byte = text[i];
                text[i] ^= 1 << bit;
                let parsed = from_slice::<Checkpoint>(&text);
                if b"{}[]:,".contains(&byte) {
                    prop_assert!(parsed.is_err(), "byte {} bit {}", i, bit);
                }
                let _ = from_slice::<serde::Value>(&text);
            }
        }
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1F600}".to_string();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v: Vec<(String, Vec<u32>)> = vec![("x".into(), vec![1, 2]), ("y".into(), vec![])];
        let back: Vec<(String, Vec<u32>)> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(from_str::<u32>("not json").is_err());
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
    }

    /// Only the JSON number grammar parses: spellings `str::parse` would
    /// accept (a plus sign, leading zeros, a bare `.`) are errors, alone
    /// and inside an array.
    #[test]
    fn non_json_numbers_are_rejected() {
        for bad in [
            "+5", "-+5", "01", "-01", "1.", ".5", "1.e3", "1e", "--5", "-", "1e+",
        ] {
            let err = from_str::<serde::Value>(bad).expect_err(bad);
            assert!(err.to_string().contains("number"), "{bad}: {err}");
            assert!(
                from_str::<serde::Value>(&format!("[{bad}]")).is_err(),
                "[{bad}]"
            );
        }
        for good in ["0", "-0", "-0.0", "10", "1e-7", "1E+2", "2.5e10", "-12.75"] {
            assert!(from_str::<serde::Value>(good).is_ok(), "{good}");
        }
        assert_eq!(from_str::<i64>("-12").unwrap(), -12);
        assert_eq!(from_str::<f64>("1e-7").unwrap(), 1e-7);
    }
}
