//! One function per experiment, and the experiment index.
//!
//! Each function returns one or more [`Table`]s; the `experiments` binary
//! prints them and optionally writes CSV. `quick` mode shrinks sizes so the
//! whole suite runs in seconds (used by integration tests); full mode runs
//! n = 2^14 and sweeps n = 2^11 … 2^15. Costs are element moves, the
//! paper's cost measure.
//!
//! # Index
//!
//! One entry per id of [`all_experiments`], in its order; the ids are
//! what the binary accepts on its command line.
//!
//! * `e4` ([`e4_theorem2`]) — Theorem 2: the embedding `F ⊳ R` (adaptive
//!   into classic) costs what F costs on F's good inputs, what R costs in
//!   general, and stays bounded in the worst case.
//! * `e4b` ([`e4b_light_amortization`]) — the light amortization Theorem
//!   2's proof needs from R: the cost of any w consecutive ops stays
//!   within a constant of w·C + n.
//! * `e5` ([`e5_corollary11`]) — Theorem 3 / Corollary 11: `X ⊳ (Y ⊳ Z)`
//!   tracks the adaptive X on hammer inserts and the randomized Y on
//!   random inserts, under the deamortized Z's per-op cap everywhere.
//! * `e6` ([`e6_corollary12`]) — Corollary 12: with a rank predictor of
//!   error η, amortized cost grows like log² η, and the layered structure
//!   keeps the randomized and deamortized fallbacks.
//! * `e7` ([`e7_lemma5`]) — Figure 2 / Lemma 5: every element's deadweight
//!   is at most 4, and the embedding's cost splits into emulator, shell
//!   and placement moves.
//! * `e8` ([`e8_lemma6`]) — Lemma 6: each rebuild spans o(n) operations.
//! * `e9` ([`e9_lemma7`]) — Lemma 7: buffer occupancy stays o(n), so the
//!   halting condition never fires.
//! * `e10` ([`e10_baselines`]) — the single-layer baselines the paper
//!   composes: classic list labeling fits cost ≈ (log n)² per insert on
//!   head inserts, and the shift array is linear in n.
//! * `e11` ([`e11_tails`]) — worst-case guarantees: the randomized
//!   structure has a heavy per-op tail, the deamortized one is capped, and
//!   the layered structure inherits the cap.
//! * `e12` ([`e12_ablation`]) — no single claim: an ablation of the
//!   embedding's tuning knobs (ε, rebuild multiplier, E_R multiplier)
//!   against cost, buffering and worst case, which Theorem 2's bounds
//!   treat as constants.
//!
//! # Substitutions
//!
//! Two of Corollary 11's three layers are profile equivalents of the
//! algorithms the paper cites, not those algorithms. Theorems 2 and 3 use
//! only a layer's cost profile, and each substitute keeps the profile its
//! position needs:
//!
//! * **Y** (`lll-randomized`) stands in for the randomized algorithm of
//!   Bender, Conway, Farach-Colton, Komlós, Kuszmaul and Wein, "Online
//!   List Labeling: Breaking the log² n Barrier" (FOCS 2022). It is a PMA
//!   with per-node random threshold jitter and jittered layouts. It keeps
//!   Y's profile: good expected cost against an oblivious adversary, a
//!   heavy per-operation tail and no worst-case bound. It does not
//!   implement that paper's O(log^{3/2} n) expected-cost machinery.
//! * **Z** (`lll-deamortized`) stands in for Willard's worst-case
//!   construction (1992). It is a PMA with soft and hard thresholds whose
//!   rebalances run as incremental jobs under a per-operation move quota.
//!   It keeps Z's profile, a cap on every single operation's cost, but the
//!   cap is measured (forced syncs are counted), not proven.
//!
//! Corollary 12's X (`lll-predictions`) follows McCauley, Moseley,
//! Niaparast and Singh, "Online List Labeling with Predictions" (2023),
//! through one stated mechanism: an element predicted to end at final
//! rank p is placed near slot p·m/n, between its rank neighbours, and
//! rebalance windows are capped at Θ(η·m/n) slots.
//!
//! So these claims check a substitute's profile, not the cited bound:
//!
//! * `e5`'s random-input rows: the "randomized-style" cost is this Y's;
//! * `e10`'s randomized and deamortized rows and their fitted exponents;
//! * `e11`: Y's heavy tail, and Z's cap, which the layered structure
//!   inherits;
//! * `e4b`'s randomized and deamortized rows;
//! * `e6`: cost against η is that of the mechanism above.
//!
//! `e4`, `e7`–`e9` and `e12` embed the adaptive PMA into the classic one
//! and use no substitute.

use crate::harness::{run_workload, RunResult};
use crate::table::{fmt_f, Table};
use lll_adaptive::AdaptiveBuilder;
use lll_classic::{ClassicBuilder, ShiftArrayBuilder};
use lll_core::testkit::fit_log_exponent;
use lll_core::traits::LabelingBuilder;
use lll_deamortized::DeamortizedBuilder;
use lll_embedding::{corollary11_builder, corollary12_builder, EmbedBuilder, EmbedConfig};
use lll_predictions::{PredictedBuilder, VecPredictor};
use lll_randomized::RandomizedBuilder;
use lll_workloads as wl;
use lll_workloads::Workload;

/// Experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Shrink sizes for fast runs (integration tests).
    pub quick: bool,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self { quick: false, seed: 0xC0FFEE }
    }
}

impl ExpConfig {
    fn main_n(&self) -> usize {
        if self.quick {
            1 << 10
        } else {
            1 << 14
        }
    }

    fn sweep_ns(&self) -> Vec<usize> {
        if self.quick {
            vec![1 << 9, 1 << 10, 1 << 11]
        } else {
            vec![1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15]
        }
    }
}

fn run_built<B: LabelingBuilder>(b: &B, label: &str, w: &Workload) -> (RunResult, B::Structure) {
    let mut s = b.build_default(w.peak);
    let mut r = run_workload(&mut s, w);
    r.structure = label.to_string();
    (r, s)
}

fn push_result(t: &mut Table, r: &RunResult) {
    t.row(vec![
        r.workload.clone(),
        r.structure.clone(),
        fmt_f(r.amortized()),
        r.max_op().to_string(),
        fmt_f(r.ops_per_sec() / 1000.0),
    ]);
}

/// E10 — baseline scaling: amortized cost per structure per workload, plus
/// the fitted exponent p in cost ≈ c·(log n)^p on head-inserts (classical
/// should fit p ≈ 2; the shift-array anchor is linear in n).
pub fn e10_baselines(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let mut t = Table::new(
        format!("E10 baselines (n={n}): amortized moves/op by workload"),
        &["workload", "structure", "amortized", "max/op", "kops/s"],
    );
    for w in wl::standard_suite(n, cfg.seed) {
        let (r, _) = run_built(&ClassicBuilder, "classic", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&AdaptiveBuilder, "adaptive", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&RandomizedBuilder::with_seed(cfg.seed ^ 1), "randomized", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&DeamortizedBuilder, "deamortized", &w);
        push_result(&mut t, &r);
        if n <= 1 << 12 {
            let (r, _) = run_built(&ShiftArrayBuilder, "naive-shift", &w);
            push_result(&mut t, &r);
        }
    }

    let mut shape = Table::new(
        "E10 shape fit: exponent p in cost/op ~ (log n)^p on head inserts",
        &["structure", "p", "points (n: cost)"],
    );
    let ns = cfg.sweep_ns();
    let fit_for = |name: &str, f: &dyn Fn(usize) -> f64| -> Vec<String> {
        let pts: Vec<(usize, f64)> = ns.iter().map(|&n| (n, f(n))).collect();
        let p = fit_log_exponent(&pts);
        let desc =
            pts.iter().map(|(n, c)| format!("{}:{}", n, fmt_f(*c))).collect::<Vec<_>>().join(" ");
        vec![name.to_string(), fmt_f(p), desc]
    };
    shape.rows.push(fit_for("classic", &|n| {
        let w = wl::descending_inserts(n);
        run_built(&ClassicBuilder, "classic", &w).0.amortized()
    }));
    shape.rows.push(fit_for("adaptive", &|n| {
        let w = wl::descending_inserts(n);
        run_built(&AdaptiveBuilder, "adaptive", &w).0.amortized()
    }));
    shape.rows.push(fit_for("randomized", &|n| {
        let w = wl::descending_inserts(n);
        run_built(&RandomizedBuilder::with_seed(cfg.seed ^ 2), "randomized", &w).0.amortized()
    }));
    shape.rows.push(fit_for("deamortized", &|n| {
        let w = wl::descending_inserts(n);
        run_built(&DeamortizedBuilder, "deamortized", &w).0.amortized()
    }));
    vec![t, shape]
}

/// E11 — tail profile: the randomized structure's per-op cost distribution
/// has a heavy tail (cost ≥ k·mean for non-trivial fractions), while the
/// deamortized structure is capped; the layered structure inherits the cap.
pub fn e11_tails(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let w = wl::hammer_inserts(n, 0);
    let mut t = Table::new(
        format!("E11 tails on hammer (n={n}): fraction of ops with cost > k·mean"),
        &["structure", "mean", "max", ">4x", ">16x", ">64x"],
    );
    let mut add = |r: &RunResult| {
        let mean = r.amortized();
        t.row(vec![
            r.structure.clone(),
            fmt_f(mean),
            r.max_op().to_string(),
            fmt_f(r.series.tail_fraction((4.0 * mean) as u32)),
            fmt_f(r.series.tail_fraction((16.0 * mean) as u32)),
            fmt_f(r.series.tail_fraction((64.0 * mean) as u32)),
        ]);
    };
    let (r, _) = run_built(&RandomizedBuilder::with_seed(cfg.seed ^ 3), "randomized (Y)", &w);
    add(&r);
    let (r, _) = run_built(&DeamortizedBuilder, "deamortized (Z)", &w);
    add(&r);
    let (r, _) = run_built(&ClassicBuilder, "classic", &w);
    add(&r);
    let (r, _) = run_built(&corollary11_builder(cfg.seed), "X>(Y>Z) layered", &w);
    add(&r);
    vec![t]
}

/// E4 — Theorem 2: the single embedding `F ⊳ R` (adaptive into classic)
/// compared with its components across workloads: good-case cost tracks F,
/// worst-case stays bounded, general cost tracks R.
pub fn e4_theorem2(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let mut t = Table::new(
        format!("E4 Theorem 2 (n={n}): F=adaptive, R=classic, F>R vs parts"),
        &["workload", "structure", "amortized", "max/op", "kops/s"],
    );
    let embed_b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
    for w in [
        wl::hammer_inserts(n, 0),
        wl::uniform_random_inserts(n, cfg.seed),
        wl::adversarial_packed(n, cfg.seed ^ 4),
    ] {
        let (r, _) = run_built(&AdaptiveBuilder, "F alone (adaptive)", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&ClassicBuilder, "R alone (classic)", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&embed_b, "F>R embed", &w);
        push_result(&mut t, &r);
    }
    vec![t]
}

/// E5 — Theorem 3 / Corollary 11: the triple composition cherry-picks the
/// best column of each row: adaptive cost on hammer, randomized-style cost
/// on random input, deamortized-style per-op cap everywhere.
pub fn e5_corollary11(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let mut t = Table::new(
        format!("E5 Corollary 11 (n={n}): X=adaptive, Y=randomized, Z=deamortized"),
        &["workload", "structure", "amortized", "max/op", "kops/s"],
    );
    for w in [
        wl::hammer_inserts(n, 0),
        wl::uniform_random_inserts(n, cfg.seed),
        wl::adversarial_packed(n, cfg.seed ^ 5),
    ] {
        let (r, _) = run_built(&AdaptiveBuilder, "X alone (adaptive)", &w);
        push_result(&mut t, &r);
        let (r, _) =
            run_built(&RandomizedBuilder::with_seed(cfg.seed ^ 6), "Y alone (randomized)", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&DeamortizedBuilder, "Z alone (deamortized)", &w);
        push_result(&mut t, &r);
        let (r, _) = run_built(&corollary11_builder(cfg.seed), "X>(Y>Z) layered", &w);
        push_result(&mut t, &r);
    }

    // n-sweep of the layered structure on hammer: adaptivity is retained
    // through two layers of embedding (amortized should grow ~log n, not
    // log² n — compare the classic column).
    let mut sweep = Table::new(
        "E5 sweep: layered amortized cost on hammer vs n",
        &["n", "layered", "classic", "ratio"],
    );
    for nn in cfg.sweep_ns() {
        let w = wl::hammer_inserts(nn, 0);
        let (rl, _) = run_built(&corollary11_builder(cfg.seed), "layered", &w);
        let (rc, _) = run_built(&ClassicBuilder, "classic", &w);
        sweep.row(vec![
            nn.to_string(),
            fmt_f(rl.amortized()),
            fmt_f(rc.amortized()),
            fmt_f(rl.amortized() / rc.amortized()),
        ]);
    }
    vec![t, sweep]
}

/// E6 — Corollary 12: learning-augmented layered structure; amortized cost
/// grows with the predictor error η (≈ log² η) and the layered version
/// keeps the randomized/deamortized fallbacks.
pub fn e6_corollary12(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let mut t = Table::new(
        format!("E6 Corollary 12 (n={n}, descending workload): cost vs prediction error"),
        &["eta", "predicted alone", "layered X>(Y>Z)", "layered max/op"],
    );
    let base = wl::descending_inserts(n);
    let mut etas = vec![0usize, 4, 16, 64, 256];
    if !cfg.quick {
        etas.push(n / 8);
    }
    for eta in etas {
        let pw = wl::with_predictions(base.clone(), eta, cfg.seed ^ 7);
        let b_alone = PredictedBuilder {
            eta: eta.max(1),
            predictor: VecPredictor::new(pw.predictions.clone()),
        };
        let (ra, _) = run_built(&b_alone, "predicted", &pw.workload);
        let b_layered = corollary12_builder(eta.max(1), pw.predictions.clone(), cfg.seed ^ 8);
        let (rl, _) = run_built(&b_layered, "layered", &pw.workload);
        t.row(vec![
            eta.to_string(),
            fmt_f(ra.amortized()),
            fmt_f(rl.amortized()),
            rl.max_op().to_string(),
        ]);
    }
    // classical reference
    let (rc, _) = run_built(&ClassicBuilder, "classic", &base);
    t.row(vec!["(classic ref)".into(), fmt_f(rc.amortized()), "-".into(), "-".into()]);
    vec![t]
}

/// E2+E7 — Figure 2 / Lemma 5: per-element deadweight histogram and the
/// embedding's cost decomposition (every deadweight move is one crossed
/// buffered element: total cost = emulator + shell + placements).
pub fn e7_lemma5(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let mut t = Table::new(
        format!("E7 Lemma 5 (n={n}): deadweight moves per element (must be <= 4)"),
        &["workload", "max", "hist 0..=8"],
    );
    let mut decomp = Table::new(
        "E2 Figure 2 accounting: embedding cost decomposition",
        &[
            "workload",
            "total moves",
            "r-shell",
            "deadweight",
            "incorporations",
            "fast ops",
            "slow ops",
        ],
    );
    for w in [
        wl::hammer_inserts(n, 0),
        wl::uniform_churn(n / 2, n, cfg.seed ^ 9),
        wl::adversarial_packed(n, cfg.seed ^ 10),
    ] {
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut s = b.build_default(w.peak);
        let r = run_workload(&mut s, &w);
        let st = s.stats();
        t.row(vec![
            w.name.clone(),
            st.max_deadweight.to_string(),
            format!("{:?}", st.deadweight_hist),
        ]);
        decomp.row(vec![
            w.name.clone(),
            r.total().to_string(),
            st.r_shell_moves.to_string(),
            st.deadweight_moves.to_string(),
            st.incorporations.to_string(),
            st.fast_ops.to_string(),
            st.slow_ops.to_string(),
        ]);
        assert!(st.max_deadweight <= 4, "Lemma 5 violated: {}", st.max_deadweight);
    }
    vec![t, decomp]
}

/// E8 — Lemma 6: rebuild spans are o(n): max ops spanned by one rebuild,
/// and the normalized ratio span·log₂(n)/n (bounded by a constant if spans
/// are ≤ c·n/log n).
pub fn e8_lemma6(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "E8 Lemma 6: max rebuild span (ops) vs n on hammer inserts",
        &["n", "max span", "span*log2(n)/n", "rebuilds"],
    );
    for n in cfg.sweep_ns() {
        let w = wl::hammer_inserts(n, 0);
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut s = b.build_default(w.peak);
        let _ = run_workload(&mut s, &w);
        let st = s.stats();
        let ratio = st.max_rebuild_span as f64 * (n as f64).log2() / n as f64;
        t.row(vec![
            n.to_string(),
            st.max_rebuild_span.to_string(),
            fmt_f(ratio),
            st.rebuilds_completed.to_string(),
        ]);
    }
    vec![t]
}

/// E9 — Lemma 7: buffer occupancy is o(n) and the halting condition never
/// fires.
pub fn e9_lemma7(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "E9 Lemma 7: max buffered elements vs n (hammer inserts)",
        &["n", "max buffered", "buffered/n", "forced catchups"],
    );
    for n in cfg.sweep_ns() {
        let w = wl::hammer_inserts(n, 0);
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut s = b.build_default(w.peak);
        let _ = run_workload(&mut s, &w);
        let st = s.stats();
        t.row(vec![
            n.to_string(),
            st.max_buffered.to_string(),
            fmt_f(st.max_buffered as f64 / n as f64),
            st.forced_catchups.to_string(),
        ]);
        assert_eq!(st.forced_catchups, 0, "halting condition fired at n={n}");
    }
    vec![t]
}

/// E12 — ablation: the embedding's tuning knobs (ε, rebuild multiplier,
/// E_R multiplier) vs cost, buffering and worst case.
pub fn e12_ablation(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let w = wl::hammer_inserts(n, 0);
    let mut t = Table::new(
        format!("E12 ablation (n={n}, hammer): embedding knobs"),
        &["epsilon", "er_mult", "rebuild_mult", "amortized", "max/op", "max buffered"],
    );
    for &epsilon in &[1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0] {
        for &(er_mult, rebuild_mult) in
            &[(1.0, 1.0), (1.0, 2.0), (1.0, 4.0), (0.5, 2.0), (2.0, 2.0)]
        {
            let b = EmbedBuilder {
                f: AdaptiveBuilder,
                r: ClassicBuilder,
                cfg: EmbedConfig { epsilon, er_mult, rebuild_mult },
            };
            let mut s = b.build_default(w.peak);
            let r = run_workload(&mut s, &w);
            let st = s.stats();
            t.row(vec![
                fmt_f(epsilon),
                fmt_f(er_mult),
                fmt_f(rebuild_mult),
                fmt_f(r.amortized()),
                r.max_op().to_string(),
                st.max_buffered.to_string(),
            ]);
        }
    }
    vec![t]
}

/// E4b — light amortization: verify the subsequence-cost shape that
/// Theorem 2's proof machinery needs from R (and that the composed
/// structure exhibits): max window totals stay within a constant of
/// `w·C + n`.
pub fn e4b_light_amortization(cfg: &ExpConfig) -> Vec<Table> {
    let n = cfg.main_n();
    let w = wl::uniform_churn(n / 2, n, cfg.seed ^ 11);
    let windows = [16usize, 64, 256, 1024];
    let mut t = Table::new(
        format!("E4b light amortization (n={}): max-window-ratio vs w*C+n", n / 2),
        &["structure", "amortized C", "worst ratio (<= O(1))"],
    );
    let mut add = |label: &str, r: &RunResult| {
        let c = r.amortized();
        t.row(vec![
            label.to_string(),
            fmt_f(c),
            fmt_f(r.light_amortization_ratio(c, n / 2, &windows)),
        ]);
    };
    let (r, _) = run_built(&ClassicBuilder, "classic", &w);
    add("classic", &r);
    let (r, _) = run_built(&DeamortizedBuilder, "deamortized", &w);
    add("deamortized", &r);
    let (r, _) = run_built(&RandomizedBuilder::with_seed(cfg.seed ^ 12), "randomized", &w);
    add("randomized", &r);
    let (r, _) = run_built(&corollary11_builder(cfg.seed), "layered", &w);
    add("layered", &r);
    vec![t]
}

/// All experiments, in the order of the [index](self#index).
pub fn all_experiments(cfg: &ExpConfig) -> Vec<(&'static str, Vec<Table>)> {
    vec![
        ("e4", e4_theorem2(cfg)),
        ("e4b", e4b_light_amortization(cfg)),
        ("e5", e5_corollary11(cfg)),
        ("e6", e6_corollary12(cfg)),
        ("e7", e7_lemma5(cfg)),
        ("e8", e8_lemma6(cfg)),
        ("e9", e9_lemma7(cfg)),
        ("e10", e10_baselines(cfg)),
        ("e11", e11_tails(cfg)),
        ("e12", e12_ablation(cfg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig { quick: true, seed: 7 }
    }

    #[test]
    fn e4_runs_quick() {
        let tables = e4_theorem2(&quick());
        assert!(!tables[0].rows.is_empty());
    }

    #[test]
    fn e5_layered_tracks_adaptive_on_hammer() {
        let cfg = quick();
        let n = cfg.main_n();
        let w = wl::hammer_inserts(n, 0);
        let (rx, _) = run_built(&AdaptiveBuilder, "x", &w);
        let (rl, _) = run_built(&corollary11_builder(cfg.seed), "layered", &w);
        // The layered structure must stay within a constant of X on X's
        // best workload (Theorem 3's good-case guarantee). Constant chosen
        // loosely: composition overheads are real but bounded.
        assert!(
            rl.amortized() < 40.0 * rx.amortized().max(1.0),
            "layered {} vs adaptive {}",
            rl.amortized(),
            rx.amortized()
        );
    }

    #[test]
    fn e7_asserts_lemma5_internally() {
        let _ = e7_lemma5(&quick());
    }

    #[test]
    fn e9_asserts_lemma7_internally() {
        let _ = e9_lemma7(&quick());
    }

    #[test]
    fn e6_cost_increases_with_eta() {
        let tables = e6_corollary12(&quick());
        let rows = &tables[0].rows;
        // first row eta=0 (perfect), later rows larger eta: predicted-alone
        // column should not decrease drastically
        let first: f64 = rows.first().unwrap()[1].parse().unwrap();
        let last: f64 = rows[rows.len() - 2][1].parse().unwrap();
        assert!(last >= first * 0.8, "eta sweep shape broken: {first} -> {last}");
        // The whole quick table is deterministic per seed: pin every cell.
        let pinned = [
            ["0", "1.00", "1.00", "1"],
            ["4", "1.03", "1.02", "12"],
            ["16", "2.29", "1.31", "76"],
            ["64", "5.50", "4.87", "172"],
            ["256", "16.7", "18.9", "184"],
            ["(classic ref)", "38.8", "-", "-"],
        ];
        assert_eq!(rows.len(), pinned.len());
        for (row, want) in rows.iter().zip(pinned) {
            assert_eq!(row, &want, "E6 row changed");
        }
    }
}
