//! Explicit configuration for a fusion session: [`FusionConfig`] and the
//! knobs it bundles.
//!
//! A [`FusionConfig`] makes every choice explicit and resolves the
//! environment **once**, at [`FusionConfig::from_env`]:
//!
//! * [`ProductStrategy`] (re-exported from [`fsm_dfsm`]) — how the
//!   reachable cross product is constructed, together with its sizing
//!   knobs: the dense-interner limit ([`FusionConfig::dense_limit`],
//!   `FSM_FUSION_DENSE_LIMIT`) and the streaming build's memory budget
//!   ([`FusionConfig::mem_budget`], `FSM_FUSION_MEM_BUDGET`),
//! * [`CachePolicy`] — whether the session keeps a cross-call closure
//!   cache, and how large it may grow.
//!
//! Algorithm 2 has one engine, the sequential greedy descent; [`Engine`]
//! names it so the resolved settings can be printed.
//!
//! **Precedence.**  Explicit builder calls beat the environment snapshot,
//! which beats the defaults: a dense-interner limit set through
//! [`FusionConfig::dense_limit`] wins even on a config created by
//! [`FusionConfig::from_env`], and likewise for
//! [`FusionConfig::mem_budget`].  The pure resolution rules are pinned by
//! unit tests here (no environment mutation needed) and by
//! `tests/session_properties.rs`.
//!
//! Build the configured session with [`FusionConfig::build`].

pub use fsm_dfsm::ProductStrategy;
use fsm_dfsm::{parse_byte_size, DEFAULT_DENSE_LIMIT, DEFAULT_MEM_BUDGET};

use crate::session::FusionSession;

/// Which Algorithm-2 / lattice engine a [`FusionSession`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The single-threaded greedy descent ([`crate::generate_fusion_seq`]).
    #[default]
    Sequential,
}

/// How a [`FusionSession`]'s cross-call closure cache behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: every candidate closure is recomputed, exactly like the
    /// free-function engines.
    Disabled,
    /// Keep closures across calls, bounded to this many cached **elements**
    /// (entries × `|⊤|`, i.e. roughly `8 × bound` bytes).  When an
    /// insertion would exceed the bound, whole descent levels are evicted
    /// *oldest first* (counted in [`crate::CacheStats::evicted`]) until it
    /// fits; an insertion that cannot fit even then is skipped, so a
    /// single oversized closure never cold-starts subsequent sweeps.
    Bounded(usize),
}

impl CachePolicy {
    /// The default bound: 4 Mi cached elements (≈ 32 MiB of assignments),
    /// which holds several thousand cached closures at `|⊤| = 729`.
    pub const DEFAULT_BOUND: usize = 1 << 22;
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy::Bounded(Self::DEFAULT_BOUND)
    }
}

/// Builder for a [`FusionSession`]: product-builder strategy, sizing knobs
/// and cache policy, with the environment consulted only when (and once, at
/// the moment) [`FusionConfig::from_env`] is used.
///
/// ```
/// use fsm_fusion_core::{CachePolicy, FusionConfig, ProductStrategy};
///
/// let session = FusionConfig::new()
///     .cache(CachePolicy::Bounded(1 << 20))
///     .build();
/// assert_eq!(session.product_strategy(), ProductStrategy::Packed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FusionConfig {
    dense_limit: Option<u64>,
    env_dense_limit: Option<u64>,
    mem_budget: Option<u64>,
    env_mem_budget: Option<u64>,
    product: ProductStrategy,
    cache: CachePolicy,
}

impl FusionConfig {
    /// A config with the explicit defaults: [`ProductStrategy::Packed`],
    /// the compiled-in sizing knobs, the default bounded cache — and **no**
    /// environment consultation, ever.
    pub fn new() -> Self {
        Self::default()
    }

    /// A config whose sizing fallbacks are snapshotted from the environment
    /// **now**: the product-builder knobs `FSM_FUSION_DENSE_LIMIT` /
    /// `FSM_FUSION_MEM_BUDGET` (the [`fsm_dfsm::parse_byte_size`]
    /// convention).  Later changes to the environment do not affect the
    /// config, and explicit builder calls still take precedence.
    pub fn from_env() -> Self {
        Self::from_env_values(
            std::env::var("FSM_FUSION_DENSE_LIMIT").ok().as_deref(),
            std::env::var("FSM_FUSION_MEM_BUDGET").ok().as_deref(),
        )
    }

    /// The pure form of [`FusionConfig::from_env`]: resolution from
    /// explicit variable values, so the precedence rules are testable
    /// without mutating the process environment.
    pub fn from_env_values(dense_limit: Option<&str>, mem_budget: Option<&str>) -> Self {
        FusionConfig {
            env_dense_limit: dense_limit.and_then(parse_byte_size),
            env_mem_budget: mem_budget.and_then(parse_byte_size),
            ..Self::default()
        }
    }

    /// Sets the product-builder strategy (default
    /// [`ProductStrategy::Packed`]).
    pub fn product(mut self, strategy: ProductStrategy) -> Self {
        self.product = strategy;
        self
    }

    /// Sets the product builder's dense-interner limit (a full-product
    /// *state count*) explicitly, overriding any `FSM_FUSION_DENSE_LIMIT`
    /// snapshot.
    pub fn dense_limit(mut self, limit: u64) -> Self {
        self.dense_limit = Some(limit);
        self
    }

    /// Sets the streaming product builder's resident-memory budget
    /// (bytes) explicitly, overriding any `FSM_FUSION_MEM_BUDGET`
    /// snapshot.
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Sets the closure-cache policy (default
    /// [`CachePolicy::Bounded`] at [`CachePolicy::DEFAULT_BOUND`]).
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// The worker count a session runs with: always one, since Algorithm 2
    /// has a single sequential engine.
    pub fn resolved_workers(&self) -> usize {
        1
    }

    /// The engine a session runs: always [`Engine::Sequential`].
    pub fn resolved_engine(&self) -> Engine {
        Engine::Sequential
    }

    /// The configured product strategy.
    pub fn resolved_product(&self) -> ProductStrategy {
        self.product
    }

    /// The dense-interner limit this config resolves to:
    /// **explicit > environment snapshot >
    /// [`fsm_dfsm::DEFAULT_DENSE_LIMIT`]**.
    pub fn resolved_dense_limit(&self) -> u64 {
        self.dense_limit
            .or(self.env_dense_limit)
            .unwrap_or(DEFAULT_DENSE_LIMIT)
    }

    /// The streaming memory budget this config resolves to:
    /// **explicit > environment snapshot >
    /// [`fsm_dfsm::DEFAULT_MEM_BUDGET`]**.
    pub fn resolved_mem_budget(&self) -> u64 {
        self.mem_budget
            .or(self.env_mem_budget)
            .unwrap_or(DEFAULT_MEM_BUDGET)
    }

    /// The configured cache policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache
    }

    /// Builds the configured [`FusionSession`].
    pub fn build(self) -> FusionSession {
        FusionSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_to_the_one_engine_and_the_packed_product() {
        let c = FusionConfig::new();
        assert_eq!(c.resolved_engine(), Engine::Sequential);
        assert_eq!(c.resolved_workers(), 1);
        assert_eq!(c.resolved_product(), ProductStrategy::Packed);
        assert_eq!(
            c.product(ProductStrategy::Reference).resolved_product(),
            ProductStrategy::Reference
        );
    }

    #[test]
    fn sizing_knobs_follow_the_same_precedence() {
        use fsm_dfsm::{DEFAULT_DENSE_LIMIT, DEFAULT_MEM_BUDGET};

        // Defaults come from the dfsm crate's compiled-in constants.
        let c = FusionConfig::new();
        assert_eq!(c.resolved_dense_limit(), DEFAULT_DENSE_LIMIT);
        assert_eq!(c.resolved_mem_budget(), DEFAULT_MEM_BUDGET);

        // Environment snapshots use the byte-size grammar...
        let env = FusionConfig::from_env_values(Some("4k"), Some("64m"));
        assert_eq!(env.resolved_dense_limit(), 4 << 10);
        assert_eq!(env.resolved_mem_budget(), 64 << 20);

        // ...and explicit builder calls beat them.
        let explicit = env.clone().dense_limit(100).mem_budget(1 << 16);
        assert_eq!(explicit.resolved_dense_limit(), 100);
        assert_eq!(explicit.resolved_mem_budget(), 1 << 16);
    }

    #[test]
    fn unparseable_env_values_fall_back() {
        use fsm_dfsm::{DEFAULT_DENSE_LIMIT, DEFAULT_MEM_BUDGET};

        let bad = FusionConfig::from_env_values(Some("bogus"), Some("-3"));
        assert_eq!(bad.resolved_dense_limit(), DEFAULT_DENSE_LIMIT);
        assert_eq!(bad.resolved_mem_budget(), DEFAULT_MEM_BUDGET);
    }

    #[test]
    fn cache_policy_default_is_bounded() {
        assert_eq!(
            FusionConfig::new().cache_policy(),
            CachePolicy::Bounded(CachePolicy::DEFAULT_BOUND)
        );
        let c = FusionConfig::new().cache(CachePolicy::Disabled);
        assert_eq!(c.cache_policy(), CachePolicy::Disabled);
    }
}
