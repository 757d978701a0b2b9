//! Tiny flag parser: positional arguments plus `--flag [value]` options.
//! Deliberately dependency-free (the workspace promises no third-party
//! crates beyond the approved list).

use std::collections::HashMap;

/// Parsed command-line arguments for one subcommand.
pub struct Parsed {
    positional: Vec<String>,
    flags: HashMap<String, Option<String>>,
}

/// Flags that take a value (everything else is boolean).
const VALUED: &[&str] = &[
    "--threads",
    "--budget",
    "--phi",
    "--prepopulate",
    "--skip",
    "--top-k",
    "--filter-rounds",
    "--workers",
    "--solver-workers",
    "--io-threads",
    "--conn-limit",
    "--max-graphs",
    "--queue-cap",
    "--data-dir",
    "--max-budget-ms",
    "--job-ttl-ms",
    "--result-cache-bytes",
    "--slow-query-ms",
    "--queue-delay-target-ms",
    "--max-memory-bytes",
    "--drain-timeout-ms",
    "--scrub-interval-ms",
    "--mmap-threshold-bytes",
];

impl Parsed {
    /// Parses `argv`; returns an error message on malformed input.
    pub fn parse(argv: &[String]) -> Result<Parsed, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--").map(|_| a.clone()) {
                if VALUED.contains(&name.as_str()) {
                    i += 1;
                    let v = argv
                        .get(i)
                        .ok_or_else(|| format!("flag {name} needs a value"))?;
                    flags.insert(name, Some(v.clone()));
                } else {
                    flags.insert(name, None);
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok(Parsed { positional, flags })
    }

    /// The `idx`-th positional argument.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A valued flag, parsed to `T`.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            Some(Some(v)) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("invalid value {v:?} for {name}")),
            Some(None) => Err(format!("flag {name} needs a value")),
            None => Ok(None),
        }
    }

    /// A valued flag as a raw string.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positional_and_flags() {
        let p = Parsed::parse(&sv(&["file.clq", "--threads", "4", "--quiet"])).unwrap();
        assert_eq!(p.positional(0), Some("file.clq"));
        assert_eq!(p.value::<usize>("--threads").unwrap(), Some(4));
        assert!(p.has("--quiet"));
        assert!(!p.has("--verbose"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Parsed::parse(&sv(&["--threads"])).is_err());
    }

    #[test]
    fn bad_value_reports_flag_name() {
        let p = Parsed::parse(&sv(&["--phi", "xyz"])).unwrap();
        let err = p.value::<f64>("--phi").unwrap_err();
        assert!(err.contains("--phi"));
    }

    #[test]
    fn absent_flag_is_none() {
        let p = Parsed::parse(&sv(&["x"])).unwrap();
        assert_eq!(p.value::<usize>("--threads").unwrap(), None);
    }
}
