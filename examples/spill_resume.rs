//! Scripted interrupt-then-resume check for disk-spilled sweeps — the
//! executable form of the storage layer's crash-recovery contract
//! (`docs/EXPLORER.md` §5). CI's resume gate runs this binary; it
//! exits nonzero (panics) if any resumed report differs from the
//! uninterrupted in-memory run.
//!
//! The script, on the exhaustive Figure 1 `n = 4` sweep, crash-free and
//! again under the crash-count adversary `Crashes::UpTo(1)` (whose
//! resumed nodes read their remaining budget from the crashed outcomes of
//! the snapshots they rehydrate):
//!
//! 1. run in memory — the reference report;
//! 2. run spilled to a sweep directory, under a 256-node resident
//!    ceiling with 4-layer checkpoints, but **halted** at a layer
//!    barrier (`Explorer::halt_after_layers`, a kill that keeps the
//!    process alive), at several different halt points;
//! 3. corrupt the sweep directory the way a real kill would — garbage
//!    bytes appended past the last barrier of the append-only files;
//! 4. resume from the manifest and demand the byte-identical summary,
//!    verdict, and violation list;
//! 5. resume the *finished* directory again — a `done` manifest just
//!    reloads the report.
//!
//! Run with: `cargo run --release --example spill_resume`

use mpcn::agreement::fixtures::{check_agreement, fig1_bodies};
use mpcn::runtime::sched::Crashes;
use mpcn::{ExploreLimits, Explorer};
use std::io::Write as _;

fn explorer(crashes: &Crashes) -> Explorer {
    Explorer::new(4).crashes(crashes.clone()).limits(ExploreLimits {
        max_expansions: 2_000_000,
        max_steps: 2_000,
        ..Default::default()
    })
}

/// Runs the script above for one adversary.
fn resume_gate(label: &str, crashes: Crashes) {
    let bodies = || fig1_bodies(4, 1);
    let check = |r: &mpcn::runtime::model_world::RunReport| check_agreement(r, 4, false);

    let reference = explorer(&crashes).run(bodies, check);
    reference.assert_no_violation();
    assert!(reference.complete, "the {label} sweep must exhaust");
    println!("reference   {}", reference.summary_line(label));

    for halt_after in [1u64, 4, 9] {
        let slug: String =
            label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
        let dir = std::env::temp_dir()
            .join(format!("mpcn-spill-resume-{}-{slug}-{halt_after}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let halted = explorer(&crashes)
            .resident_ceiling(256)
            .checkpoint_every(4)
            .spill_to(&dir)
            .fixture_id(label)
            .halt_after_layers(halt_after)
            .run(bodies, check);
        assert!(!halted.complete, "a sweep halted at layer {halt_after} is not a proof");
        println!("halted@{halt_after}    {}", halted.summary_line(label));

        // A real kill can land mid-write: leave torn tails past the last
        // barrier. Resume must truncate them back to the manifest state.
        for file in ["segments.bin", "visited.bin"] {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(file))
                .expect("sweep file exists");
            f.write_all(&[0xEF; 21]).expect("append torn tail");
        }

        let resumed = Explorer::resume_sweep(&dir, bodies, check);
        println!("resumed@{halt_after}   {}", resumed.summary_line(label));
        assert_eq!(
            reference.stats.summary(),
            resumed.stats.summary(),
            "{label}: resume after halt at layer {halt_after} must be invisible"
        );
        assert_eq!(reference.complete, resumed.complete);
        assert_eq!(reference.violations, resumed.violations);

        let reloaded = Explorer::resume_sweep(&dir, bodies, check);
        assert_eq!(
            resumed.stats.summary(),
            reloaded.stats.summary(),
            "a done manifest must reload the same report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn main() {
    resume_gate("fig1 n=4", Crashes::None);
    resume_gate("fig1 n=4 f=1", Crashes::UpTo(1));
    println!("spill_resume: all resumed sweeps byte-identical to the reference");
}
