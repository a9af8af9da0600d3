//! Every `*.md` file that the code, tests, examples or docs cite must
//! exist in the repository.
//!
//! Scanned: `crates/*/src`, `src`, `tests`, `examples`, `docs` and
//! `README.md`. The history files at the root (the change log and the
//! roadmap) are not scanned: they name files of earlier revisions on
//! purpose. A citation resolves when some Markdown file of the
//! repository — outside build output (`target`), hidden directories and
//! the vendored third-party crates — has it as its path or as a suffix
//! of its path, after any leading `./` and `../` are stripped.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, skipping hidden directories, build output and
/// the vendored crates.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "vendor" {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The `*.md` paths cited in `text`, with the line each one is on.
fn citations(text: &str) -> Vec<(usize, String)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices(".md") {
            let end = at + ".md".len();
            let after = line[end..].chars().next();
            if after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                continue; // `.mdx`, `.md_file`, …
            }
            let start = line[..at].rfind(|c: char| !is_path(c)).map_or(0, |i| i + 1);
            let mut cited = &line[start..end];
            while let Some(rest) = cited
                .strip_prefix("./")
                .or_else(|| cited.strip_prefix("../"))
            {
                cited = rest;
            }
            // A bare `.md` or a URL path (`//host/…`) is not a citation.
            if cited.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                out.push((n + 1, cited.to_string()));
            }
        }
    }
    out
}

/// Whether `cited` is the path, or a path suffix, of a known file.
fn resolves(cited: &str, known: &[String]) -> bool {
    known
        .iter()
        .any(|k| k == cited || k.ends_with(&format!("/{cited}")))
}

#[test]
fn citation_scanner_finds_paths_and_skips_non_citations() {
    // Written upper-case so this file's own scan does not cite them.
    let md = |s: &str| s.replace(".MD", ".md");
    let text = md("see docs/A.MD, [b](../docs/B.MD#part) and ./C.MD\n\
                   not a.MDx, x.MD_y, a bare .MD, or https://host/D.MD");
    let want = [(1, "docs/A.MD"), (1, "docs/B.MD"), (1, "C.MD")];
    assert_eq!(citations(&text), want.map(|(n, c)| (n, md(c))));
    let known = [md("docs/A.MD"), md("x/docs/B.MD")];
    for (cited, found) in [
        ("docs/A.MD", true),
        ("A.MD", true),
        ("docs/B.MD", true),
        ("C.MD", false),
        ("s/A.MD", false),
    ] {
        assert_eq!(resolves(&md(cited), &known), found, "{cited}");
    }
}

#[test]
fn every_cited_markdown_file_exists() {
    let root = root();
    let mut files = Vec::new();
    walk(&root, &mut files);
    let rel = |p: &Path| {
        p.strip_prefix(&root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/")
    };
    let known: Vec<String> = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .map(|p| rel(p))
        .collect();

    let mut scanned = vec![root.join("README.md")];
    for dir in ["src", "tests", "examples", "docs"] {
        walk(&root.join(dir), &mut scanned);
    }
    for krate in fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .flatten()
    {
        walk(&krate.path().join("src"), &mut scanned);
    }

    let mut dangling = Vec::new();
    for path in &scanned {
        let Ok(text) = fs::read_to_string(path) else {
            continue; // not UTF-8 text
        };
        for (line, cited) in citations(&text) {
            if !resolves(&cited, &known) {
                dangling.push(format!("{}:{line}: {cited}", rel(path)));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "cited Markdown files that do not exist:\n{}",
        dangling.join("\n")
    );
}
