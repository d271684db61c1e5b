//! The `FSM_FUSION_*` environment knobs shared across the workspace: the
//! sizing knobs of the product builder, `FSM_FUSION_DENSE_LIMIT` (the
//! dense-interner crossover) and `FSM_FUSION_MEM_BUDGET` (the streaming
//! build's resident-memory budget).  Both the product builder in this
//! crate and `fsm-fusion-core`'s `FusionConfig` read them, and every knob
//! follows the established precedence: explicit builder/config call >
//! environment snapshot > default.

/// Dense-interner limit requested through `FSM_FUSION_DENSE_LIMIT`, or
/// `None` when the variable is unset/unparseable (callers then fall back
/// to `ProductBuilder`'s compiled-in default).  Accepts the same byte-size
/// grammar as [`parse_byte_size`], interpreted as a *state count* — plain
/// numbers are counts, and `k`/`m`/`g` suffixes scale by 2¹⁰/2²⁰/2³⁰.
pub fn configured_dense_limit() -> Option<u64> {
    std::env::var("FSM_FUSION_DENSE_LIMIT")
        .ok()
        .and_then(|v| parse_byte_size(&v))
}

/// Memory budget requested through `FSM_FUSION_MEM_BUDGET` (bytes, with
/// optional `k`/`m`/`g` suffixes), or `None` when unset/unparseable.
pub fn configured_mem_budget() -> Option<u64> {
    std::env::var("FSM_FUSION_MEM_BUDGET")
        .ok()
        .and_then(|v| parse_byte_size(&v))
}

/// The size-value convention shared by `FSM_FUSION_DENSE_LIMIT` and
/// `FSM_FUSION_MEM_BUDGET`, as a pure function so the rules are testable
/// without mutating the process environment: a plain non-negative integer,
/// optionally scaled by a case-insensitive `k`/`m`/`g` (or `kb`/`mb`/`gb`,
/// `kib`/`mib`/`gib`) suffix.  Empty or unparseable values are `None`, as
/// are values whose scaled magnitude overflows `u64`.
pub fn parse_byte_size(value: &str) -> Option<u64> {
    let s = value.trim().to_ascii_lowercase();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.find(|c: char| !c.is_ascii_digit()) {
        None => (s.as_str(), 1u64),
        Some(pos) => {
            let mult = match &s[pos..] {
                "k" | "kb" | "kib" => 1u64 << 10,
                "m" | "mb" | "mib" => 1u64 << 20,
                "g" | "gb" | "gib" => 1u64 << 30,
                _ => return None,
            };
            (&s[..pos], mult)
        }
    };
    if digits.is_empty() {
        return None;
    }
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_byte_size_follows_the_env_convention() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("4194304"), Some(4194304));
        assert_eq!(parse_byte_size(" 64k "), Some(64 << 10));
        assert_eq!(parse_byte_size("64K"), Some(64 << 10));
        assert_eq!(parse_byte_size("3m"), Some(3 << 20));
        assert_eq!(parse_byte_size("3MiB"), Some(3 << 20));
        assert_eq!(parse_byte_size("2gb"), Some(2u64 << 30));
        for bad in [
            "",
            " ",
            "k",
            "-1",
            "2.5m",
            "64x",
            "garbage",
            "99999999999999999999",
        ] {
            assert_eq!(parse_byte_size(bad), None, "value {bad:?}");
        }
        // Scaled overflow is rejected, not wrapped.
        assert_eq!(parse_byte_size("99999999999999999g"), None);
    }
}
