//! The engine's environment settings, parsed once.
//!
//! Three `TGRAPH_*` variables tune the engine and the server on top of it.
//! They are read in exactly one place — [`EngineConfig::from_env`], called
//! by [`Runtime`](crate::Runtime) construction — and every consumer reads
//! the parsed value off the runtime ([`Runtime::config`](crate::Runtime::config))
//! instead of the process environment. [`EngineConfig::parse`] is a pure
//! function of a lookup closure, so the parsing rules are testable without
//! touching process state.

use std::ffi::OsString;
use std::path::PathBuf;

/// What the environment asked of the engine, as typed values.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// `TGRAPH_CHECKED` is `1` or `true`: a fresh runtime starts in checked
    /// execution mode ([`Runtime::set_checked`](crate::Runtime::set_checked)
    /// still toggles it).
    pub checked: bool,
    /// `TGRAPH_MEM_BYTES`: the memory governor's starting byte budget, plain
    /// or `k`/`m`/`g`-suffixed (base 1024); `0`, absent or unparsable means
    /// unlimited.
    pub mem_bytes: u64,
    /// `TGRAPH_SPILL_DIR` (default `<tmp>/tgraph-spill`): where spill runs
    /// are written.
    pub spill_dir: PathBuf,
}

impl EngineConfig {
    /// The configuration of this process's environment.
    pub fn from_env() -> Self {
        Self::parse(|name| std::env::var_os(name))
    }

    /// Parses the three variables out of `lookup` (`None` = unset).
    pub fn parse(lookup: impl Fn(&str) -> Option<OsString>) -> Self {
        let text = |name: &str| lookup(name).and_then(|v| v.into_string().ok());
        EngineConfig {
            checked: matches!(text("TGRAPH_CHECKED").as_deref(), Some("1" | "true")),
            mem_bytes: text("TGRAPH_MEM_BYTES")
                .and_then(|v| parse_bytes(&v))
                .unwrap_or(0),
            spill_dir: lookup("TGRAPH_SPILL_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("tgraph-spill")),
        }
    }
}

impl Default for EngineConfig {
    /// The configuration of an empty environment.
    fn default() -> Self {
        Self::parse(|_| None)
    }
}

fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    num.trim().parse::<u64>().ok()?.checked_shl(shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(vars: &[(&str, &str)]) -> EngineConfig {
        EngineConfig::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn an_empty_environment_gives_the_documented_defaults() {
        let c = EngineConfig::default();
        assert!(!c.checked);
        assert_eq!(c.mem_bytes, 0);
        assert_eq!(c.spill_dir, std::env::temp_dir().join("tgraph-spill"));
    }

    #[test]
    fn budgets_take_binary_suffixes_and_garbage_means_unlimited() {
        let budget = |v: &str| parsed(&[("TGRAPH_MEM_BYTES", v)]).mem_bytes;
        assert_eq!(budget("4096"), 4096);
        assert_eq!(budget("64k"), 64 << 10);
        assert_eq!(budget("256m"), 256 << 20);
        assert_eq!(budget("1g"), 1 << 30);
        assert_eq!(budget("3M"), 3 << 20);
        assert_eq!(budget(" 8K "), 8 << 10);
        assert_eq!(budget("0"), 0);
        assert_eq!(budget("lots"), 0);
        assert_eq!(budget("k"), 0);
        assert_eq!(budget(""), 0);
    }

    #[test]
    fn checked_takes_one_or_true_only() {
        let checked = |v: &str| parsed(&[("TGRAPH_CHECKED", v)]).checked;
        assert!(checked("1"));
        assert!(checked("true"));
        assert!(!checked("yes"));
        assert!(!checked("0"));
    }

    #[test]
    fn spill_dir_is_taken_verbatim() {
        let c = parsed(&[("TGRAPH_SPILL_DIR", "/var/tmp/spill here")]);
        assert_eq!(c.spill_dir, PathBuf::from("/var/tmp/spill here"));
    }
}
