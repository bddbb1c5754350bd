//! A guided tour of the paper's mechanism, component by component: builds
//! the Listing-1 loop from Section IV-B2 by hand, drives each B-Fetch
//! structure the way the simulator does, and shows Equation 3 producing
//! the prefetch stream.
//!
//! ```sh
//! cargo run --release --example paper_tour
//! ```

use bfetch::bpred::{
    CompositeConfidence, ConfidenceConfig, PathConfidence, TournamentConfig, TournamentPredictor,
};
use bfetch::core::{BFetchConfig, BFetchEngine, DecodedBranch};

fn main() {
    println!("== Listing 1 (Section IV-B2) ==");
    println!("Start: load r1, 24(r2)");
    println!("       lda  r2, r2, #128");
    println!("       cmpeq r2, r3, r1");
    println!("Br1:   beq  r1, Start");
    println!();

    // ---- the shared predictor learns the loop branch --------------------
    let br1 = 0x40_0400u64;
    let start = 0x40_03f0u64;
    let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
    let mut conf = CompositeConfidence::new(ConfidenceConfig::baseline());
    let mut ghr = 0u64;
    for _ in 0..500 {
        let p = bp.predict(br1, ghr);
        conf.train(br1, ghr, p.strength, p.taken);
        bp.update(br1, ghr, true);
        ghr = (ghr << 1) | 1;
    }
    let c = conf.estimate(br1, ghr, bp.predict(br1, ghr).strength);
    println!("1. branch predictor trained: Br1 predicted taken,");
    println!("   composite confidence = {c:.3}");

    // ---- path confidence decides the lookahead depth --------------------
    let mut path = PathConfidence::new(0.75);
    let mut depth = 0;
    while path.extend(c) {
        depth += 1;
        if depth >= 31 {
            break;
        }
    }
    println!("2. path confidence 0.75 sustains a lookahead of ~{depth} blocks");
    println!("   (the paper reports an average depth of 8 BBs)");
    println!();

    // ---- the engine learns the loop's register transformation -----------
    let mut engine = BFetchEngine::new(BFetchConfig::baseline());
    let mut regs = [0u64; 32];
    regs[2] = 0x1_0000; // r2: the walking pointer
    let mut seq = 0;
    for iter in 0..6 {
        engine.on_commit_branch(br1, true, true, start, br1 + 4);
        engine.on_commit_load(start, 2, regs[2], regs[2] + 24); // load r1, 24(r2)
        println!(
            "   commit iteration {iter}: r2 = {:#x}, load EA = {:#x}",
            regs[2],
            regs[2] + 24
        );
        regs[2] += 128; // lda r2, r2, #128
        seq += 1;
        engine.post_regwrite(2, regs[2], seq, seq);
    }
    engine.tick(1_000, &bp, &conf); // let the ARF sampling latches mature
    println!("3. MHT learned: Offset = 24, LoopDelta = 128 (Equations 1 & 3)");
    println!();

    // ---- decode the branch once more and watch the walk -----------------
    engine.on_branch_decoded(DecodedBranch {
        pc: br1,
        predicted_taken: true,
        taken_target: start,
        fallthrough: br1 + 4,
        is_cond: true,
        ghr_before: ghr,
        confidence: c,
    });
    engine.tick(1_001, &bp, &conf);
    let prefetches: Vec<_> = engine.pop_prefetches(32).collect();
    println!(
        "4. one lookahead walk produced {} prefetches:",
        prefetches.len()
    );
    for (i, p) in prefetches.iter().take(6).enumerate() {
        println!(
            "   iteration +{}: prefetch {:#x}  (= r2 + 24 + {} x 128)",
            i + 1,
            p.addr,
            i + 1
        );
    }
    let stats = engine.stats();
    println!();
    println!(
        "engine stats: {} walk, {} blocks traversed, mean depth {:.1}",
        stats.lookaheads,
        stats.branches_walked,
        stats.mean_depth()
    );
    println!();
    println!("every address above targets a *future* iteration, before any miss");
    println!("occurs — the property that separates B-Fetch from miss-triggered");
    println!("prefetchers (Section II).");
}
