//! The round-trip guarantee every rule is built on: the lexer is
//! lossless (token concatenation reproduces the file byte-for-byte).
//! Checked exhaustively over every file the real workspace scan
//! visits, and probabilistically over generated token soup.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use trim_lint::lexer;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has two ancestors")
        .to_path_buf()
}

fn workspace_sources() -> Vec<(String, String)> {
    let root = workspace_root();
    let cfg = trim_lint::load_config(&root).expect("Lint.toml parses");
    let files = trim_lint::collect_files(&root, &cfg).expect("walk succeeds");
    assert!(files.len() > 100, "walker saw only {} files", files.len());
    files
        .into_iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(&rel)).expect("file reads");
            (rel, text)
        })
        .collect()
}

fn relex(text: &str) -> String {
    let tokens = lexer::lex(text);
    let mut rebuilt = String::with_capacity(text.len());
    for t in &tokens {
        rebuilt.push_str(&text[t.start..t.end]);
    }
    rebuilt
}

#[test]
fn every_workspace_file_relexes_byte_for_byte() {
    for (rel, text) in workspace_sources() {
        assert_eq!(relex(&text), text, "{rel} did not re-lex losslessly");
    }
}

/// Syntax fragments whose arbitrary concatenations stress the lexer:
/// strings with escapes, raw strings, char vs lifetime ambiguity,
/// nested block comments, numeric suffixes, multi-char punctuation.
const FRAGMENTS: &[&str] = &[
    "fn f() {}\n",
    "let s = \"a \\\"quoted\\\" str\";",
    "r#\"raw \" inside\"#",
    "'c'",
    "'\\n'",
    "&'a str",
    "1_000u64",
    "1.5e-3",
    "0xdead_beef",
    "// line comment\n",
    "/* block /* nested */ still comment */",
    "x ..= y",
    "a::b::<T>()",
    "#[cfg(test)]",
    "b\"bytes\\x00\"",
    "macro_rules! m { () => {} }",
    " \t\n",
    "ident_with_unicode_après",
];

proptest! {
    #[test]
    fn token_soup_relexes_byte_for_byte(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64)
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        prop_assert_eq!(relex(&text), text);
    }
}
