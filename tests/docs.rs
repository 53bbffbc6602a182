//! The prose documents cite code by name: every backticked Rust name in
//! them must still exist in the source, so a rename or a deletion that
//! leaves a stale citation behind fails here instead of misleading a
//! reader.
//!
//! A backticked span is split at `::`; each segment that is a snake_case
//! name with an underscore (`step_visit`) or a CamelCase type name
//! (`GridPartition`) — a trailing `()` dropped — must occur as an
//! identifier in some `.rs` file under `crates/`, `tests/`, `examples/`
//! or `benchmark/src/`. Fenced code blocks are not citations and are
//! skipped.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

const SOURCE_DIRS: [&str; 4] = ["crates", "tests", "examples", "benchmark/src"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every identifier-shaped word of every source file.
fn source_identifiers() -> HashSet<String> {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&repo_root().join(dir), &mut files);
    }
    let mut idents = HashSet::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap();
        idents.extend(
            text.split(|c: char| !is_ident_char(c))
                .filter(|w| !w.is_empty())
                .map(str::to_string),
        );
    }
    idents
}

/// `lower_case_with_underscore` or `CamelCase` (at least one lowercase
/// letter, so `README` and `PDEML_KERNEL` are not names).
fn is_cited_name(s: &str) -> bool {
    let Some(first) = s.chars().next() else {
        return false;
    };
    if !s.chars().all(is_ident_char) {
        return false;
    }
    let snake = first.is_ascii_lowercase()
        && s.contains('_')
        && !s.ends_with('_')
        && !s.chars().any(|c| c.is_ascii_uppercase());
    let camel =
        first.is_ascii_uppercase() && !s.contains('_') && s.chars().any(|c| c.is_ascii_lowercase());
    snake || camel
}

/// `(line, name)` for every name cited in inline code spans of `text`
/// outside fenced blocks.
fn cited_names(text: &str) -> Vec<(usize, String)> {
    // Blank out fenced blocks, keeping line numbers.
    let mut prose = String::with_capacity(text.len());
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut names = Vec::new();
    let mut line = 1;
    for (k, piece) in prose.split('`').enumerate() {
        if k % 2 == 1 {
            for segment in piece.split("::") {
                let segment = segment.trim().trim_end_matches("()");
                if is_cited_name(segment) {
                    names.push((line, segment.to_string()));
                }
            }
        }
        line += piece.matches('\n').count();
    }
    names
}

#[test]
fn every_name_the_docs_cite_exists_in_the_source() {
    let idents = source_identifiers();
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(repo_root().join(doc)).unwrap();
        for (line, name) in cited_names(&text) {
            if !idents.contains(&name) {
                stale.push(format!("{doc}:{line}: `{name}`"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "{} cited name(s) occur in no source file — point each at the current \
         name or reword the sentence:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn the_citation_parser_reads_spans_segments_and_skips_fences() {
    let text = "a `Foo::bar_baz()` b\n```\n`Hidden`\n```\n`x` `README` `y_`\n`Multi\nLine`";
    assert_eq!(
        cited_names(text),
        vec![(1, "Foo".to_string()), (1, "bar_baz".to_string())]
    );
}
