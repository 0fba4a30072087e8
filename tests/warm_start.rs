//! Warm-start contract: matching against a preloaded `.sgc` artifact
//! must be observationally identical to a cold compile — same
//! instances, same stats — while the metrics tell the true story:
//! `artifact.warm_hits` / `artifact.load_ns` on a hit, a zero main
//! compile share, `artifact.warm_misses` plus a silent cold fallback
//! when the digest disagrees or globals are ignored, and exactly one
//! hit across an entire pattern library sharing the handle.

use subgemini::{find_all, find_all_many, MatchOptions, MatchOutcome, Matcher, WarmMain};
use subgemini_netlist::{structural_digest, Artifact, Netlist};
use subgemini_workloads::{cells, gen};

fn warm_opts(warm: WarmMain) -> MatchOptions {
    MatchOptions {
        collect_metrics: true,
        warm_main: Some(warm),
        ..MatchOptions::default()
    }
}

fn counter(o: &MatchOutcome, name: &str) -> u64 {
    o.metrics
        .as_ref()
        .expect("collect_metrics was set")
        .counters
        .get(name)
}

#[test]
fn warm_and_cold_runs_agree_on_everything_observable() {
    let pattern = cells::full_adder();
    let g = gen::ripple_adder(12);
    let artifact = Artifact::build(&g.netlist);
    let cold = Matcher::new(&pattern, &g.netlist)
        .options(MatchOptions {
            collect_metrics: true,
            ..MatchOptions::default()
        })
        .find_all();
    let warm = Matcher::new(&pattern, &g.netlist)
        .options(warm_opts(WarmMain::from_artifact(artifact, 1234)))
        .find_all();

    assert_eq!(cold.instances, warm.instances, "instances diverge");
    assert_eq!(cold.key, warm.key);
    assert_eq!(cold.phase1, warm.phase1);
    assert_eq!(cold.phase2, warm.phase2);
    assert_eq!(cold.completeness, warm.completeness);
    assert_eq!(cold.count(), 12, "one full adder per ripple stage");

    // Hit accounting: the artifact's load cost is surfaced verbatim,
    // and the main circuit's compile share drops out of `compile_ns`
    // (what remains is the pattern compile alone).
    assert_eq!(counter(&warm, "artifact.warm_hits"), 1);
    assert_eq!(counter(&warm, "artifact.load_ns"), 1234);
    assert_eq!(counter(&warm, "artifact.warm_misses"), 0);
    let (cm, wm) = (
        cold.metrics.as_ref().unwrap(),
        warm.metrics.as_ref().unwrap(),
    );
    assert!(
        wm.compile_ns < cm.compile_ns,
        "warm compile_ns ({}) must shed the main share of the cold one ({})",
        wm.compile_ns,
        cm.compile_ns
    );
    assert_eq!(counter(&cold, "artifact.warm_hits"), 0);
    assert_eq!(counter(&cold, "artifact.warm_misses"), 0);
}

#[test]
fn warm_hit_happens_through_an_actual_file_round_trip() {
    let pattern = cells::nand2();
    let g = gen::ripple_adder(4);
    let path = std::env::temp_dir().join("sgc_warm_start_test.sgc");
    Artifact::build(&g.netlist).save(&path).unwrap();
    let t0 = std::time::Instant::now();
    let artifact = Artifact::load(&path).unwrap();
    let load_ns = t0.elapsed().as_nanos() as u64;
    std::fs::remove_file(&path).unwrap();

    assert_eq!(artifact.source_digest, structural_digest(&g.netlist));
    let warm = Matcher::new(&pattern, &g.netlist)
        .options(warm_opts(WarmMain::from_artifact(artifact, load_ns)))
        .find_all();
    assert_eq!(counter(&warm, "artifact.warm_hits"), 1);
    assert_eq!(counter(&warm, "artifact.load_ns"), load_ns);
    let cold = find_all(&pattern, &g.netlist, &MatchOptions::default());
    assert_eq!(cold.instances, warm.instances);
}

#[test]
fn digest_mismatch_falls_back_to_a_cold_compile() {
    let pattern = cells::inv();
    let g = gen::ripple_adder(4);
    // An artifact compiled from a *different* circuit: same cells, one
    // extra stage. The digest check must refuse it and recompile.
    let other = gen::ripple_adder(5);
    let stale = Artifact::build(&other.netlist);
    assert_ne!(stale.source_digest, structural_digest(&g.netlist));

    let warm = Matcher::new(&pattern, &g.netlist)
        .options(warm_opts(WarmMain::from_artifact(stale, 99)))
        .find_all();
    let cold = find_all(&pattern, &g.netlist, &MatchOptions::default());
    assert_eq!(
        cold.instances, warm.instances,
        "fallback must silently produce cold results"
    );
    assert_eq!(counter(&warm, "artifact.warm_misses"), 1);
    assert_eq!(counter(&warm, "artifact.warm_hits"), 0);
    assert_eq!(counter(&warm, "artifact.load_ns"), 0);
}

#[test]
fn ignoring_globals_bypasses_the_warm_handle() {
    // With globals ignored the main circuit is rewritten before
    // compilation, so the artifact's snapshot no longer describes the
    // circuit being searched; the matcher must fall back cold.
    let pattern = cells::inv();
    let g = gen::ripple_adder(4);
    let artifact = Artifact::build(&g.netlist);
    let warm = Matcher::new(&pattern, &g.netlist)
        .options(MatchOptions {
            respect_globals: false,
            ..warm_opts(WarmMain::from_artifact(artifact, 77))
        })
        .find_all();
    let cold = find_all(
        &pattern,
        &g.netlist,
        &MatchOptions {
            respect_globals: false,
            ..MatchOptions::default()
        },
    );
    assert_eq!(cold.instances, warm.instances);
    assert_eq!(counter(&warm, "artifact.warm_hits"), 0);
    assert_eq!(
        counter(&warm, "artifact.warm_misses"),
        1,
        "the unusable handle must be reported as a miss"
    );
}

#[test]
fn pattern_library_shares_one_warm_handle() {
    // `find_all_many` prepares the main circuit once; with a warm
    // handle the whole library rides one Arc'd snapshot and one index.
    // The hit is attributed exactly once (first pattern), later
    // patterns report the cache hit as usual — the same accounting
    // shape `tests/many_patterns.rs` pins for cold runs.
    let library = [cells::inv(), cells::nand2(), cells::full_adder()];
    let refs: Vec<&Netlist> = library.iter().collect();
    let g = gen::ripple_adder(6);
    let artifact = Artifact::build(&g.netlist);
    let options = warm_opts(WarmMain::from_artifact(artifact, 4321));
    let outcomes = find_all_many(&refs, &g.netlist, &options);
    assert_eq!(outcomes.len(), refs.len());
    for (i, (pattern, outcome)) in refs.iter().zip(&outcomes).enumerate() {
        let solo = find_all(pattern, &g.netlist, &MatchOptions::default());
        assert_eq!(
            solo.instances,
            outcome.instances,
            "pattern {}: warm library run diverges",
            pattern.name()
        );
        if i == 0 {
            assert_eq!(counter(outcome, "artifact.warm_hits"), 1, "pattern {i}");
            assert_eq!(counter(outcome, "artifact.load_ns"), 4321, "pattern {i}");
            assert_eq!(counter(outcome, "compile.main_cache_hits"), 0);
        } else {
            assert_eq!(
                counter(outcome, "artifact.warm_hits"),
                0,
                "pattern {i}: the warm hit must be attributed once"
            );
            assert_eq!(
                counter(outcome, "compile.main_cache_hits"),
                1,
                "pattern {i}"
            );
        }
    }
}

#[test]
fn warm_handle_serves_the_prune_index_without_a_rebuild() {
    // A search prunes only off the index that comes with the warm
    // snapshot; a cold one has no index and prunes nothing.
    let pattern = cells::inv();
    let mut g = gen::near_miss_field(&pattern, 24, 0x5347_e140);
    for i in 0..8 {
        let bindings: Vec<_> = (0..pattern.ports().len())
            .map(|p| g.netlist.net(format!("t{i}p{p}")))
            .collect();
        g.plant(&pattern, &format!("pl{i}"), &bindings);
    }
    let artifact = Artifact::build(&g.netlist);
    let warm = Matcher::new(&pattern, &g.netlist)
        .options(warm_opts(WarmMain::from_artifact(artifact, 5)))
        .find_all();
    assert_eq!(warm.count(), g.planted_count("inv"));
    assert!(
        counter(&warm, "index.pruned_candidates") > 0,
        "a warm search must prune off the warm index"
    );
    let cold = find_all(
        &pattern,
        &g.netlist,
        &MatchOptions {
            collect_metrics: true,
            ..MatchOptions::default()
        },
    );
    assert_eq!(cold.instances, warm.instances);
    assert_eq!(
        counter(&cold, "index.pruned_candidates"),
        0,
        "a cold search has no index and must not prune"
    );
}
