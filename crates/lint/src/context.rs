//! Which code is test code.
//!
//! An outer attribute marks a test item when it is `#[test]` or a
//! `#[cfg(…)]` whose predicate names `test` outside any `not(…)`:
//! `#[cfg(test)]` and `#[cfg(any(test, …))]` do, `#[cfg(not(test))]`
//! (code that exists only in real builds) does not. The item runs from
//! its first attribute through the matching `}` of its body, or through
//! the `;` that ends a bodiless item.

/// `code` (from [`code_only`](crate::lexer::code_only)) with every test
/// item blanked to spaces, newlines kept.
pub fn non_test(code: &str) -> String {
    let b = code.as_bytes();
    let mut out = b.to_vec();
    let mut from = 0;
    while let Some(at) = code[from..].find("#[").map(|k| from + k) {
        let close = matching(b, at + 1, b'[', b']');
        if !is_test_attr(&code[at + 2..close]) {
            from = close;
            continue;
        }
        let end = item_end(b, close + 1);
        for c in &mut out[at..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        from = end;
    }
    String::from_utf8(out).expect("only ASCII bytes are blanked")
}

/// The index of the `close` that balances the `open` at `b[at]`, or the
/// end of the input.
fn matching(b: &[u8], at: usize, open: u8, close: u8) -> usize {
    let mut depth = 0;
    for (i, &c) in b.iter().enumerate().skip(at) {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    b.len()
}

/// One past the end of the item that starts at `b[from]`: its body's
/// closing `}`, or the `;` at bracket depth 0, whichever comes first.
fn item_end(b: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(from) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'}' if depth <= 1 => return i + usize::from(depth == 1),
            b'}' => depth -= 1,
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    b.len()
}

/// Whether the attribute body `attr` (between `#[` and `]`) gates an
/// item on `test`.
fn is_test_attr(attr: &str) -> bool {
    let squeezed: String = attr.split_whitespace().collect();
    if squeezed == "test" {
        return true;
    }
    let Some(pred) = squeezed.strip_prefix("cfg(") else {
        return false;
    };
    // Drop every `not(…)` group, then look for the word `test`.
    let mut kept = String::new();
    let mut rest = pred;
    while let Some(k) = rest.find("not(") {
        let word_start = k == 0 || matches!(rest.as_bytes()[k - 1], b'(' | b',');
        kept.push_str(&rest[..k]);
        if !word_start {
            kept.push_str("not(");
            rest = &rest[k + 4..];
            continue;
        }
        let close = matching(rest.as_bytes(), k + 3, b'(', b')');
        rest = &rest[(close + 1).min(rest.len())..];
    }
    kept.push_str(rest);
    kept.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .any(|word| word == "test")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::code_only;

    /// Whether the first occurrence of `needle` in `src` is test code.
    fn in_test(src: &str, needle: &str) -> bool {
        let at = src.find(needle).expect("needle in source");
        non_test(&code_only(src))[at..].starts_with(' ')
    }

    #[test]
    fn test_region_covers_cfg_test_module() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n\
                   fn after() {}\n";
        assert!(!in_test(src, "x.unwrap"));
        assert!(in_test(src, "y.unwrap"));
        assert!(in_test(src, "mod tests"));
        assert!(!in_test(src, "after"));
        assert_eq!(non_test(src).lines().count(), src.lines().count());
    }

    #[test]
    fn test_region_covers_test_fn_and_stacked_attrs() {
        let src =
            "#[test]\n#[should_panic]\nfn boom() -> [u8; 2] { panic!(\"x\") }\nfn fine() {}\n";
        assert!(in_test(src, "should_panic"));
        assert!(in_test(src, "panic!"));
        assert!(!in_test(src, "fine"));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn real() { x.unwrap(); }\n#[cfg(any(unix, not(test)))]\nfn also() {}\n";
        assert_eq!(non_test(src), src);
    }

    #[test]
    fn cfg_any_with_test_is_a_test_region() {
        let src =
            "#[cfg(any(test, feature = \"slow\"))]\nmod helpers { fn h() {} }\nfn after() {}\n";
        assert!(in_test(src, "helpers"));
        assert!(!in_test(src, "after"));
        // `test` must be a whole word, not part of one.
        let src = "#[cfg(my_test)]\nfn f() {}\n#[cfg_attr(test, derive(Debug))]\nstruct S;\n";
        assert_eq!(non_test(src), src);
    }

    #[test]
    fn bodiless_test_gated_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn after() {}\n";
        assert!(in_test(src, "HashMap"));
        assert!(!in_test(src, "after"));
    }
}
