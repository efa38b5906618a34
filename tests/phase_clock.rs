//! Integration test: the per-phase clock Fig. 2 and the §3.5 per-phase fit
//! both read (`CompileStats::time`). In serial mode its buckets time
//! disjoint stretches of one thread's wall clock, so together they fit
//! inside `elapsed` (the remainder is Fig. 2's "other"), and a join method
//! that generated plans was timed.

use cote_optimizer::{JoinMethod, Optimizer, OptimizerConfig};
use cote_workloads::by_name;

#[test]
fn phase_buckets_fit_the_wall_clock_and_time_every_method() {
    for name in ["real1-s", "star-s"] {
        let w = by_name(name).unwrap();
        let opt = Optimizer::new(OptimizerConfig::high(w.mode));
        for q in &w.queries {
            let s = opt.optimize_query(&w.catalog, q).unwrap().stats;
            assert!(
                s.time.total() <= s.elapsed,
                "{}: buckets {:?} exceed elapsed {:?}",
                q.name,
                s.time,
                s.elapsed
            );
            for m in JoinMethod::ALL {
                let bucket = match m {
                    JoinMethod::Nljn => s.time.nljn,
                    JoinMethod::Mgjn => s.time.mgjn,
                    JoinMethod::Hsjn => s.time.hsjn,
                };
                if s.plans_generated.get(m) > 0 {
                    assert!(
                        !bucket.is_zero(),
                        "{}: {m:?} generated plans in 0 s",
                        q.name
                    );
                }
            }
        }
    }
}
