//! The run context printed with every result: host parallelism,
//! toolchain, commit and lines of Rust per crate. Context, not metrics.

use std::path::{Path, PathBuf};
use tpi_obs::JsonObject;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                rust_lines(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

pub fn line() -> String {
    let root = repo_root();
    let mut loc = JsonObject::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|rd| rd.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect())
        .unwrap_or_default();
    crates.sort();
    let mut total = 0;
    for c in &crates {
        let n = rust_lines(c);
        total += n;
        loc.field_u64(&c.file_name().unwrap_or_default().to_string_lossy(), n);
    }
    let mut o = JsonObject::new();
    o.field_str("perfbench", "context")
        .field_u64("nproc", std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
        .field_str("rustc", env!("PERFBENCH_RUSTC"))
        .field_str("commit", &commit(&root))
        .field_u64("rust_lines_total", total)
        .field_object("rust_lines", loc);
    o.finish()
}
