//! Lexical scanning without a token stream.
//!
//! [`code_only`] blanks comments, string literals and char literals to
//! spaces, keeping every newline, so the text left is code and a byte
//! offset or line number in it is the same in the source. Lifetimes
//! (`'a`) and raw identifiers (`r#type`) stay code. [`decimal_ints`]
//! then finds the decimal integer literals in that code.

/// `src` with comments, string literals and char literals blanked to
/// spaces, newlines kept. An unterminated literal or comment is blanked
/// to the end of the input.
pub fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if b[i] == b'"' || raw_string_at(b, i) {
            // A raw string ends at a quote followed by as many `#`s.
            let raw = b[i] == b'r';
            i += usize::from(raw);
            let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
            i += hashes + 1;
            let close = [b"\"".as_slice(), &vec![b'#'; hashes]].concat();
            while i < b.len() && !b[i..].starts_with(&close) {
                i += if !raw && b[i] == b'\\' { 2 } else { 1 };
            }
            i += close.len();
        } else if b[i] == b'\'' {
            // A char literal, not a lifetime: an escape, or one char
            // followed by the closing quote.
            let len = src[i + 1..].chars().next().map_or(0, char::len_utf8);
            if b.get(i + 1) == Some(&b'\\') {
                i += 3;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 1 + len) == Some(&b'\'') {
                i += len + 2;
            } else {
                i += 1;
                continue;
            }
        } else {
            i += 1;
            continue;
        }
        // Every blanked range starts on an ASCII byte; ending it on a
        // char boundary keeps the output UTF-8.
        let mut end = i.min(b.len());
        while !src.is_char_boundary(end) {
            end += 1;
        }
        for c in &mut out[start..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
    String::from_utf8(out).expect("blanked ranges end on char boundaries")
}

/// Whether a raw string (`r"…"`, `r#"…"#`, `br"…"`) starts at `b[i]`.
fn raw_string_at(b: &[u8], i: usize) -> bool {
    if b[i] != b'r' {
        return false;
    }
    let ident = |k: usize| b[k].is_ascii_alphanumeric() || b[k] == b'_';
    let starts_token = i == 0 || !ident(i - 1) || (b[i - 1] == b'b' && (i < 2 || !ident(i - 2)));
    let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
    starts_token && b.get(i + 1 + hashes) == Some(&b'"')
}

/// The decimal integer literals in `code` (from [`code_only`]), each as
/// `(1-based line, text, value)`: no hex, octal or binary, and no
/// floats (`1_000_000.0`, `1e9`, `5f64`). A type suffix is kept in the
/// text and ignored in the value.
pub fn decimal_ints(code: &str) -> Vec<(usize, String, u128)> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let after_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        if !b[i].is_ascii_digit() || after_ident {
            i += 1;
            continue;
        }
        let start = i;
        let word = |mut i: usize| {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            i
        };
        i = word(i);
        let digits_end = code[start..i]
            .find(|c: char| !c.is_ascii_digit() && c != '_')
            .map_or(i, |k| start + k);
        let suffix = &code[digits_end..i];
        let radix =
            suffix.starts_with(['x', 'o', 'b']) && digits_end == start + 1 && b[start] == b'0';
        let fraction = b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit);
        if fraction {
            i = word(i + 1);
        }
        // A signed exponent (`1e-3`, `2.5E+9`) belongs to the literal.
        if !radix && matches!(b[i - 1], b'e' | b'E') && matches!(b.get(i), Some(b'+' | b'-')) {
            i = word(i + 1);
        }
        let text = &code[start..i];
        let digits: String = code[start..digits_end]
            .chars()
            .filter(|&c| c != '_')
            .collect();
        let float = fraction || suffix.starts_with(['e', 'E', 'f']);
        if let (false, false, Ok(v)) = (radix, float, digits.parse::<u128>()) {
            let line = code[..start].matches('\n').count() + 1;
            out.push((line, text.to_string(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line` without its whitespace.
    fn squeeze(line: &str) -> String {
        line.split_whitespace().collect()
    }

    /// The `(text, value)` of each decimal literal in `src`.
    fn ints(src: &str) -> Vec<(String, u128)> {
        decimal_ints(&code_only(src))
            .into_iter()
            .map(|(_, text, value)| (text, value))
            .collect()
    }

    #[test]
    fn lossless_on_tricky_input() {
        let src = r##"
//! doc
fn main() {
    let s = "str with \" quote and // not a comment";
    let r = r#"raw "inner" text"#;
    let b = b"bytes"; let bc = b'\n'; let xé = "ü";
    let c = 'x'; let l: &'static str = "s";
    let f = 1.5e-3f64; let i = 1_000_000u64; let h = 0xFF;
    /* block /* nested */ still comment */
    let range = 0..10; let t = x.0;
}
"##;
        let code = code_only(src);
        assert_eq!(code.len(), src.len());
        let words: Vec<String> = code.lines().map(squeeze).collect();
        assert_eq!(
            words,
            [
                "",
                "",
                "fnmain(){",
                "lets=;",
                "letr=;",
                "letb=b;letbc=b;letxé=;",
                "letc=;letl:&'staticstr=;",
                "letf=1.5e-3f64;leti=1_000_000u64;leth=0xFF;",
                "",
                "letrange=0..10;lett=x.0;",
                "}",
            ]
        );
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let code = code_only(r#"let a = "Instant::now()"; // Instant::now()"#);
        assert!(!code.contains("Instant"), "{code}");
        assert!(code.starts_with("let a ="));
        let code = code_only("let a = 1; /* 2 /* 3 */ 4 */ let b = 5;");
        assert_eq!(squeeze(&code), "leta=1;letb=5;");
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let u = '\\u{1F600}'; let q = '\\''; }";
        let code = code_only(src);
        assert_eq!(code.matches("'a").count(), 2, "{code}");
        assert_eq!(code.matches('\'').count(), 2, "{code}");
        assert!(squeeze(&code).ends_with("letc=;letu=;letq=;}"), "{code}");
    }

    #[test]
    fn number_classification() {
        for (src, decimal) in [
            ("42", true),
            ("1_000_000", true),
            ("7u64", true),
            ("0", true),
            ("0xDEAD_BEEF", false),
            ("0o17", false),
            ("0b1010", false),
            ("1.0", false),
            ("1e9", false),
            ("2.5e-3", false),
            ("1f64", false),
        ] {
            assert_eq!(ints(src).len(), usize::from(decimal), "{src}");
        }
        // A range does not make its ends floats. A digit inside an
        // identifier is no literal; a tuple field index is one.
        assert_eq!(ints("0..10"), [("0".into(), 0), ("10".into(), 10)]);
        assert_eq!(ints("x1_000_000 + t.0"), [("0".into(), 0)]);
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let code =
            code_only("let r#type = 1; let s = r#\"2\"#; let t = br\"3\"; let u = for_r\"4\";");
        assert!(code.contains("let r#type = 1;"), "{code}");
        assert!(!code.contains('2') && !code.contains('3'), "{code}");
        // `for_r"4"` is an identifier then a plain string, not a raw one.
        assert!(code.contains("for_r   ;"), "{code}");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a = 1;\nb = \"x\ny\";\n  c /* 2\n3 */ = 4_000_000;\n";
        let lines: Vec<(usize, String)> = decimal_ints(&code_only(src))
            .into_iter()
            .map(|(line, text, _)| (line, text))
            .collect();
        assert_eq!(lines, [(1, "1".into()), (5, "4_000_000".into())]);
    }

    #[test]
    fn decimal_int_values() {
        assert_eq!(ints("1_000_000"), [("1_000_000".into(), 1_000_000)]);
        assert_eq!(ints("42u64"), [("42u64".into(), 42)]);
        assert_eq!(ints("0xFF"), []);
        assert_eq!(
            ints("340282366920938463463374607431768211455"),
            [("340282366920938463463374607431768211455".into(), u128::MAX)]
        );
    }

    #[test]
    fn unterminated_literals_extend_to_eof_losslessly() {
        for src in [
            "\"never closed",
            "/* never closed",
            "r#\"raw",
            "\"esc\\",
            "'\\",
            "x \"é",
        ] {
            let code = code_only(src);
            assert_eq!(code.len(), src.len(), "{src:?}");
            let start = src.find(['"', '/', 'r', '\'']).expect("a literal");
            assert!(
                code[start..].bytes().all(|c| c == b' '),
                "{src:?} → {code:?}"
            );
        }
        // A lone quote is neither a char literal nor a lifetime's end.
        assert_eq!(code_only("'"), "'");
    }
}
