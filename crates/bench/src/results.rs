//! The results envelope shared by the artifact-writing bins (`plans`,
//! `rebuild`, `lifetime`): one `[--smoke] [--out <path>]` command
//! line, one JSON document per run with its `"schema"` tag first, rendered
//! through [`nssd_sim::json`], and one failure path — the `--smoke` checks
//! on the bin's in-memory records included.

use std::fmt::Display;

use nssd_sim::json::{render, Json};

/// The parsed command line of an artifact-writing bin.
pub struct Results {
    /// `--smoke`: CI-gate sizing, and the bin's smoke checks run.
    pub smoke: bool,
    bin: &'static str,
    out: Option<String>,
}

impl Results {
    /// Parses `--smoke` and `--out <path>` from the arguments of `bin`.
    pub fn from_args(bin: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = args.iter().position(|a| a == "--out");
        Results {
            smoke: args.iter().any(|a| a == "--smoke"),
            bin,
            out: out.and_then(|i| args.get(i + 1).cloned()),
        }
    }

    /// Writes `body` — an object — rendered at `pretty_depth` with
    /// `"schema": schema` as its first key to the `--out` path (else
    /// `default_path`), creating its directory, and logs `wrote <path>`.
    ///
    /// # Panics
    ///
    /// If `body` is not an object, or the file cannot be written.
    pub fn write(&self, default_path: &str, schema: &str, body: Json, pretty_depth: usize) {
        let Json::Object(mut doc) = body else {
            panic!("{schema}: an artifact body must be a JSON object");
        };
        doc.insert(0, ("schema", schema.into()));
        let path = self.out.as_deref().unwrap_or(default_path);
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(path, render(&Json::Object(doc), pretty_depth))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    /// Under `--smoke`, evaluates `checks` — `(passed, what)` pairs — and
    /// fails the run listing every failed `what`. Without `--smoke` it does
    /// nothing.
    pub fn smoke_gate(&self, checks: impl FnOnce() -> Vec<(bool, String)>) {
        if !self.smoke {
            return;
        }
        let failed: Vec<String> = checks()
            .into_iter()
            .filter_map(|(passed, what)| (!passed).then_some(what))
            .collect();
        if !failed.is_empty() {
            self.fail(format!("smoke check failed:\n  {}", failed.join("\n  ")));
        }
    }

    /// Prints `<bin>: <msg>` and exits non-zero.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(1)
    }
}
