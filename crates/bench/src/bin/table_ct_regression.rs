//! §3.5/§4 — the fitted `C_t` coefficients and their ratios.
//!
//! Paper (DB2): serial `C_m : C_n : C_h = 5 : 2 : 4`, parallel `6 : 1 : 2`
//! ("generating a plan is typically more expensive in the latter"). The
//! ratios are system- and machine-specific; the reproduction target is that
//! a stable nonnegative fit exists and transfers across workloads.
//!
//! Two fits are reported, each with and without the join column `J`: the
//! paper's regression on total compile time, and a per-phase attribution
//! our instrumentation makes possible (regression coefficients on collinear
//! counts can redistribute between methods without hurting prediction; the
//! per-phase fit shows the physical per-plan costs). The optimizer walks a
//! join's histograms once per orientation, so the plans-only rows charge
//! that walk to whichever plans follow it; the join-column rows price it
//! as `c_J` per orientation.
//!
//! Every fit is one set of compilations refit four ways. Each coefficient
//! is printed `value ±sd`, the standard deviation over bootstrap resamples
//! of the training queries (Kleerekoper et al. judge a linear cost→time
//! fit by this variance).
//!
//! Usage: `table_ct_regression`.

use cote::{
    fit_per_phase, fit_total, training_error, training_points, Columns, TimeModel, TrainingPoint,
};
use cote_bench::{table::TextTable, training_set};
use cote_common::{Result, Xoshiro256pp};
use cote_optimizer::{Mode, OptimizerConfig};

/// Bootstrap resamples per fit.
const RESAMPLES: usize = 200;

fn coefficients(m: &TimeModel) -> [f64; 5] {
    [m.c_nljn, m.c_mgjn, m.c_hsjn, m.c_join, m.intercept]
}

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let mut t = TextTable::new(vec![
        "version / fit",
        "C_nljn (µs)",
        "C_mgjn (µs)",
        "C_hsjn (µs)",
        "c_J (µs/join)",
        "intercept (ms)",
        "Cm:Cn:Ch",
        "train MAPE",
    ]);
    type Fit = fn(&[TrainingPoint], Columns) -> Result<TimeModel>;
    let fits: [(&str, Fit, Columns); 4] = [
        ("regression (§3.5), plans only", fit_total, Columns::Plans),
        (
            "regression + join column",
            fit_total,
            Columns::PlansAndJoins,
        ),
        ("per-phase, plans only", fit_per_phase, Columns::Plans),
        (
            "per-phase + join column",
            fit_per_phase,
            Columns::PlansAndJoins,
        ),
    ];
    for mode in [Mode::Serial, Mode::Parallel] {
        eprintln!("compiling the {mode:?} training set...");
        let (catalog, queries) = training_set(mode);
        let dw = cote_workloads::random::random(mode, 99);
        let points = training_points(
            &[(&catalog, &queries[..]), (&dw.catalog, &dw.queries[..])],
            &OptimizerConfig::high(mode),
            3,
        )?;
        for (label, fit, columns) in fits {
            let m = fit(&points, columns)?;
            // Bootstrap: refit on resamples drawn with replacement.
            let mut rng = Xoshiro256pp::new(0x5EED);
            let mut samples: Vec<[f64; 5]> = Vec::with_capacity(RESAMPLES);
            for _ in 0..RESAMPLES {
                let resample: Vec<_> = (0..points.len())
                    .map(|_| points[rng.below(points.len() as u64) as usize].clone())
                    .collect();
                if let Ok(r) = fit(&resample, columns) {
                    samples.push(coefficients(&r));
                }
            }
            let spread = |k: usize| {
                let n = samples.len().max(1) as f64;
                let mean = samples.iter().map(|s| s[k]).sum::<f64>() / n;
                (samples.iter().map(|s| (s[k] - mean).powi(2)).sum::<f64>() / n).sqrt()
            };
            let cell = |k: usize, unit: f64| {
                format!("{:.3} ±{:.3}", coefficients(&m)[k] * unit, spread(k) * unit)
            };
            let (cm, cn, ch) = m.ratio_mnh();
            t.row(vec![
                format!("{mode:?} / {label}"),
                cell(0, 1e6),
                cell(1, 1e6),
                cell(2, 1e6),
                cell(3, 1e6),
                cell(4, 1e3),
                format!("{cm:.1}:{cn:.1}:{ch:.1}"),
                format!("{:.1}%", 100.0 * training_error(&m, &points)),
            ]);
            if samples.len() < RESAMPLES {
                eprintln!(
                    "{mode:?} / {label}: {} of {RESAMPLES} resamples could not be fit",
                    RESAMPLES - samples.len()
                );
            }
        }
    }
    println!("\n§4 — fitted time-model coefficients (±: sd over {RESAMPLES} bootstrap resamples)");
    t.print();
    println!(
        "\npaper's DB2 ratios: serial 5:2:4, parallel 6:1:2 (different system, \
         different ratios; the per-phase rows show this build's physical \
         per-plan costs). In serial mode every orientation generates one HSJN \
         plan, so J and P_hsjn are the same column there: the fits split \
         their sum between C_hsjn and c_J, and only the sum is identified."
    );
    Ok(())
}
