//! Agreement object types of Imbs & Raynal 2010.
//!
//! The BG-style simulations of the paper rest on two one-shot agreement
//! object types, both implemented here as stateless handles whose
//! operations take the calling process's [`mpcn_runtime::world::Env`]:
//!
//! * [`safe::SafeAgreement`] — the classic *safe agreement* type of the BG
//!   simulation (paper Figure 1): agreement and validity always; termination
//!   provided **no** process crashes inside `propose`. One crashed
//!   proposer can block the object forever — the deliberate weak spot the
//!   BG argument turns into "one crashed simulator kills at most one
//!   simulated process".
//! * [`xsafe::XSafeAgreement`] — the paper's new *x-safe-agreement* type
//!   (Figures 5–6): owners are elected dynamically by
//!   [`xcompete::x_compete`] over an array of `x` test&set objects, and
//!   agreement is reached by scanning all `C(n, x)` owner-candidate sets,
//!   each with its own consensus-number-`x` object. Termination holds
//!   unless **all `x` owners** crash inside `propose` — so `t'` crashed
//!   simulators kill at most `⌊t'/x⌋` simulated processes.
//!
//! [`Agreement`] unifies the two behind one enum so the general simulator
//! (`mpcn-core`) instantiates Figure 1 when the target model has `x' = 1`
//! and Figures 5–6 when `x' > 1`.
//!
//! [`tas_cons`] additionally shows the hierarchy fact the paper leans on
//! ("a test&set object can easily be implemented from an object with
//! consensus number x", Section 4.3): a one-shot test&set for ≤ x
//! statically-known processes from one x-consensus object.
//!
//! # Example: safe agreement in a deterministic world
//!
//! ```
//! use mpcn_agreement::{Agreement, AgreementKind};
//! use mpcn_runtime::{Env, ModelWorld};
//!
//! let world = ModelWorld::new_free(3);
//! let envs: Vec<Env<ModelWorld>> =
//!     (0..3).map(|p| Env::new(world.clone(), p)).collect();
//! let ag = Agreement::new(AgreementKind::Safe, 500, 7, 3);
//!
//! ag.propose(&envs[1], 41u64);
//! ag.propose(&envs[2], 42u64);
//! assert_eq!(ag.try_decide::<u64>(&envs[0]), Some(41));
//! ```

pub mod fixtures;
pub mod safe;
pub mod tas_cons;
pub mod xcompete;
pub mod xsafe;

use mpcn_runtime::world::{Env, MemVal};

/// Which agreement object type backs an [`Agreement`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreementKind {
    /// Figure 1 safe agreement — for target models with `x' = 1`.
    Safe,
    /// Figures 5–6 x-safe-agreement with the given owner multiplicity
    /// `x ≥ 2` — for target models with `x' > 1`.
    XSafe {
        /// The consensus number `x'` of the objects available to the
        /// processes sharing this instance.
        x: u32,
    },
}

impl AgreementKind {
    /// The natural kind for a target model with consensus number `x`.
    pub fn for_x(x: u32) -> Self {
        if x <= 1 {
            AgreementKind::Safe
        } else {
            AgreementKind::XSafe { x }
        }
    }

    /// How many processes must crash inside `propose` to block the object
    /// forever (1 for safe agreement, `x` for x-safe-agreement).
    pub fn crash_tolerance(&self) -> u32 {
        match self {
            AgreementKind::Safe => 1,
            AgreementKind::XSafe { x } => *x,
        }
    }
}

/// A one-shot agreement instance shared by the `n` processes of a world.
///
/// `kind_base` namespaces the world keys used by this family of instances;
/// one family consumes object kinds `kind_base .. kind_base + 4`. `inst`
/// distinguishes instances within the family (callers typically pack a pair
/// of indices with [`pack_inst`]).
///
/// Protocol per process: call [`propose`](Agreement::propose) at most once,
/// then poll [`try_decide`](Agreement::try_decide) (or block on
/// [`decide`](Agreement::decide)).
#[derive(Debug, Clone, Copy)]
pub struct Agreement {
    kind: AgreementKind,
    kind_base: u32,
    inst: u64,
    n: usize,
}

impl Agreement {
    /// Creates a handle on instance `inst` of the family rooted at
    /// `kind_base`, shared by the world's `n` processes.
    pub fn new(kind: AgreementKind, kind_base: u32, inst: u64, n: usize) -> Self {
        Agreement { kind, kind_base, inst, n }
    }

    /// The object type in use.
    pub fn kind(&self) -> AgreementKind {
        self.kind
    }

    /// Proposes `v`. Must be invoked at most once per process and before
    /// that process's first `try_decide`.
    ///
    /// This performs several shared-memory steps; a crash in their middle
    /// is exactly what may block the instance (1 crash suffices for
    /// [`AgreementKind::Safe`]; all `x` owners must crash for
    /// [`AgreementKind::XSafe`]).
    pub fn propose<T: MemVal>(&self, env: &Env, v: T) {
        match self.kind {
            AgreementKind::Safe => {
                safe::SafeAgreement::new(self.kind_base, self.inst, self.n).propose(env, v)
            }
            AgreementKind::XSafe { x } => {
                xsafe::XSafeAgreement::new(self.kind_base, self.inst, self.n, x).propose(env, v)
            }
        }
    }

    /// Returns the decided value if the instance has stabilized, `None`
    /// otherwise (one shared-memory step).
    pub fn try_decide<T: MemVal>(&self, env: &Env) -> Option<T> {
        match self.kind {
            AgreementKind::Safe => {
                safe::SafeAgreement::new(self.kind_base, self.inst, self.n).try_decide(env)
            }
            AgreementKind::XSafe { x } => {
                xsafe::XSafeAgreement::new(self.kind_base, self.inst, self.n, x).try_decide(env)
            }
        }
    }

    /// Blocks (spins on the scheduler) until a value is decided.
    ///
    /// May spin forever if the instance is blocked by crashes; model-world
    /// runs bound this with their step budget.
    pub fn decide<T: MemVal>(&self, env: &Env) -> T {
        loop {
            if let Some(v) = self.try_decide(env) {
                return v;
            }
        }
    }
}

/// Packs two 32-bit indices into one instance id (e.g. the BG simulation's
/// `SAFE_AG[j, snapsn]`).
pub const fn pack_inst(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_runtime::ModelWorld;

    #[test]
    fn kind_for_x() {
        assert_eq!(AgreementKind::for_x(1), AgreementKind::Safe);
        assert_eq!(AgreementKind::for_x(2), AgreementKind::XSafe { x: 2 });
        assert_eq!(AgreementKind::for_x(5), AgreementKind::XSafe { x: 5 });
    }

    #[test]
    fn crash_tolerance() {
        assert_eq!(AgreementKind::Safe.crash_tolerance(), 1);
        assert_eq!(AgreementKind::XSafe { x: 3 }.crash_tolerance(), 3);
    }

    #[test]
    fn pack_inst_is_injective_on_halves() {
        assert_ne!(pack_inst(1, 2), pack_inst(2, 1));
        assert_eq!(pack_inst(3, 4), (3u64 << 32) | 4);
    }

    #[test]
    fn unified_interface_dispatches_to_xsafe() {
        let world = ModelWorld::new_free(4);
        let envs: Vec<Env<ModelWorld>> = (0..4).map(|p| Env::new(world.clone(), p)).collect();
        let ag = Agreement::new(AgreementKind::XSafe { x: 2 }, 600, 1, 4);
        assert_eq!(ag.try_decide::<u64>(&envs[3]), None);
        ag.propose(&envs[0], 10u64);
        assert_eq!(ag.try_decide::<u64>(&envs[3]), Some(10));
        ag.propose(&envs[1], 11u64);
        assert_eq!(ag.try_decide::<u64>(&envs[1]), Some(10));
    }
}
