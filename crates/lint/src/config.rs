//! `lint.toml` — the machine-readable rule scope + allowlist.
//!
//! The environment is offline, so no `toml` crate: this module parses
//! the small, line-oriented TOML subset the config actually uses —
//! `[table]` headers, `[[array-of-tables]]` headers, `key = "string"`
//! and `key = ["a", "b"]` (single line). Anything else is
//! a hard error: a config the parser cannot fully understand must not
//! silently weaken the lint. So is a missing file or a missing scope
//! list: there is no built-in scope to fall back to.

use std::fmt;
use std::path::Path;

/// One `[[allow]]` entry: suppress `rule` inside `path`.
///
/// Every entry must carry a human `reason`; entries that suppress
/// nothing are themselves reported as errors (a stale allowlist is a
/// lint violation, which is what keeps it empty-by-default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule code (`MDR006`) or name (`unsafe-code`).
    pub rule: String,
    /// Workspace-relative path prefix (file or directory).
    pub path: String,
    /// Mandatory justification, echoed in `--explain` output.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose code must be bit-deterministic: the hash-iteration,
    /// wall-clock, and float-ordering rules apply here.
    pub deterministic_crates: Vec<String>,
    /// Paths where `unwrap`/`expect` are forbidden (engine event loop,
    /// protocol decode paths).
    pub no_panic_paths: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    /// Optional: left out or empty, every `crates/*/src/lib.rs` and
    /// `tests/lib.rs` is a root.
    pub unsafe_forbid_roots: Vec<String>,
    /// Rule suppressions.
    pub allows: Vec<AllowEntry>,
}

/// A config-file problem, with the offending line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in the config; `None` for a problem of the whole
    /// file (a missing scope key, an incomplete `[[allow]]` entry).
    pub line: Option<usize>,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

fn err(line: usize, msg: impl Into<String>) -> ConfigError {
    ConfigError { line: Some(line), msg: msg.into() }
}

fn file_err(msg: impl Into<String>) -> ConfigError {
    ConfigError { line: None, msg: msg.into() }
}

/// Read and parse the config file at `path`.
pub fn load(path: &Path) -> Result<LintConfig, String> {
    if !path.is_file() {
        return Err(format!("config file {} not found", path.display()));
    }
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&src).map_err(|e| match e.line {
        Some(line) => format!("{}:{line}: {}", path.display(), e.msg),
        None => format!("{}: {}", path.display(), e.msg),
    })
}

/// Parse the `lint.toml` text. `[scope]` must give
/// `deterministic_crates` and `no_panic_paths`.
pub fn parse(src: &str) -> Result<LintConfig, ConfigError> {
    let (mut deterministic_crates, mut no_panic_paths) = (None, None);
    let mut cfg = LintConfig {
        deterministic_crates: Vec::new(),
        no_panic_paths: Vec::new(),
        unsafe_forbid_roots: Vec::new(),
        allows: Vec::new(),
    };
    #[derive(PartialEq)]
    enum Section {
        None,
        Scope,
        Allow,
    }
    let mut section = Section::None;
    for (ln, raw) in src.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split_once('#').map_or(raw, |(a, _)| a).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            section = Section::Allow;
            cfg.allows.push(AllowEntry {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
            });
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = match name {
                "scope" => Section::Scope,
                other => return Err(err(ln, format!("unknown section [{other}]"))),
            };
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| err(ln, "expected `key = value`"))?;
        match section {
            Section::None => return Err(err(ln, "key outside any section")),
            Section::Scope => {
                let list = parse_string_list(val).ok_or_else(|| {
                    err(ln, "expected a single-line list of strings: [\"a\", \"b\"]")
                })?;
                match key {
                    "deterministic_crates" => deterministic_crates = Some(list),
                    "no_panic_paths" => no_panic_paths = Some(list),
                    "unsafe_forbid_roots" => cfg.unsafe_forbid_roots = list,
                    other => return Err(err(ln, format!("unknown [scope] key `{other}`"))),
                }
            }
            Section::Allow => {
                let entry = cfg.allows.last_mut().ok_or_else(|| err(ln, "internal"))?;
                let s = parse_string(val)
                    .ok_or_else(|| err(ln, format!("expected a quoted string for `{key}`")))?;
                match key {
                    "rule" => entry.rule = s,
                    "path" => entry.path = s,
                    "reason" => entry.reason = s,
                    other => return Err(err(ln, format!("unknown [[allow]] key `{other}`"))),
                }
            }
        }
    }
    for (i, a) in cfg.allows.iter().enumerate() {
        if a.rule.is_empty() || a.path.is_empty() {
            return Err(file_err(format!(
                "[[allow]] entry {} needs both `rule` and `path`",
                i + 1
            )));
        }
        if a.reason.is_empty() {
            return Err(file_err(format!(
                "[[allow]] entry for {} at {} has no `reason` — every suppression must be justified",
                a.rule, a.path
            )));
        }
    }
    let missing = |key: &str| file_err(format!("[scope] must give `{key}`"));
    cfg.deterministic_crates =
        deterministic_crates.ok_or_else(|| missing("deterministic_crates"))?;
    cfg.no_panic_paths = no_panic_paths.ok_or_else(|| missing("no_panic_paths"))?;
    Ok(cfg)
}

fn parse_string(val: &str) -> Option<String> {
    let inner = val.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

fn parse_string_list(val: &str) -> Option<Vec<String>> {
    let inner = val.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|s| parse_string(s.trim())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = parse(
            r#"
# comment
[scope]
deterministic_crates = ["crates/sim", "crates/routing"]
no_panic_paths = ["crates/sim/src/engine.rs"]

[[allow]]
rule = "unsafe-code"
path = "crates/sim/src/chaos.rs"
reason = "audited"
"#,
        )
        .unwrap();
        assert_eq!(cfg.deterministic_crates, vec!["crates/sim", "crates/routing"]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].rule, "unsafe-code");
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let e = parse("[[allow]]\nrule = \"unsafe-code\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(e.msg.contains("reason"));
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        assert!(parse("[scope]\nfrobnicate = [\"a\"]\n").is_err());
        assert!(parse("[mystery]\n").is_err());
        // Model-checking bounds live in `mdr-verify`, not here: a stale
        // `[model]` block must fail loudly instead of carrying dead knobs.
        assert!(parse("[model]\ndepth = 0\nmax_states = 5000000\n").is_err());
        assert!(parse("loose = \"key\"\n").is_err());
    }

    #[test]
    fn missing_scope_keys_are_hard_errors() {
        let e = parse("").unwrap_err();
        assert!(e.msg.contains("deterministic_crates"), "{e}");
        let e = parse("[scope]\ndeterministic_crates = [\"crates/sim\"]\n").unwrap_err();
        assert!(e.msg.contains("no_panic_paths"), "{e}");
        let e = parse("[scope]\nno_panic_paths = []\n").unwrap_err();
        assert!(e.msg.contains("deterministic_crates"), "{e}");
        // Both lists given, even empty, is a complete scope.
        let cfg = parse("[scope]\ndeterministic_crates = []\nno_panic_paths = []\n").unwrap();
        assert!(cfg.deterministic_crates.is_empty() && cfg.unsafe_forbid_roots.is_empty());
    }

    #[test]
    fn load_names_the_file_it_read() {
        let path = std::env::temp_dir().join(format!("mdr-lint-{}-other.toml", std::process::id()));
        std::fs::write(&path, "[scope]\ndeterministic_crates = []\n").unwrap();
        let whole_file = load(&path);
        std::fs::write(&path, "[scope]\nfrobnicate = []\n").unwrap();
        let at_line = load(&path);
        std::fs::remove_file(&path).unwrap();
        let shown = path.display();
        assert_eq!(whole_file.unwrap_err(), format!("{shown}: [scope] must give `no_panic_paths`"));
        assert_eq!(at_line.unwrap_err(), format!("{shown}:2: unknown [scope] key `frobnicate`"));
    }

    #[test]
    fn missing_config_file_is_an_error() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir/lint.toml");
        let e = load(&path).unwrap_err();
        assert!(e.contains("not found"), "{e}");
    }
}
