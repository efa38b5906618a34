//! The clock speed of the core, sampled between the stretches being timed.
//!
//! The baseline box is a 2-vCPU guest whose host moves each vCPU between
//! clock states about 25% apart, for seconds to minutes at a time: the same
//! statement set compiles in 71 ms or 89 ms depending on when it is asked,
//! and a register-only loop on the same thread slows down by the same ratio
//! at the same moments (README, "Noise"). No statistic inside a run escapes
//! a state that outlasts the run, so every timed stretch is instead priced
//! in *reference seconds*: the measuring thread times a fixed register-only
//! kernel (a dependent xorshift chain) between stretches, and a stretch's
//! wall clock is multiplied by [`NOMINAL_MS`] over the kernel's time on
//! either side of it. Compile and estimate time over kernel time stays
//! within 2% across the states. The kernel must run on the measuring
//! thread: the other vCPU is often in another state.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the baseline box in its usual state, which makes a
/// reference second about a second there.
pub const NOMINAL_MS: f64 = 0.3725;
const STEPS: u32 = 200_000;
/// A sample younger than this is not taken again.
const FRESH: Duration = Duration::from_millis(10);
/// Samples this close to either end of a stretch price it.
const NEAR: Duration = Duration::from_millis(15);

/// Milliseconds the kernel takes: no memory traffic, so it follows the core
/// clock and nothing else. The fastest of three thirds, scaled up, because
/// what else happens to a sample (an interrupt, a preemption) only adds.
fn kernel_ms() -> f64 {
    let third = || {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..STEPS / 3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    };
    3.0 * third().min(third()).min(third())
}

/// One thread's samples; threads are merged with [`Reference::absorb`].
pub struct Reference {
    /// (when, kernel milliseconds), in time order.
    samples: Vec<(Instant, f64)>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            samples: Vec::new(),
        };
        r.tick();
        r
    }

    /// Call between timed stretches: samples the kernel unless a sample is
    /// still fresh.
    pub fn tick(&mut self) {
        if self.samples.last().is_none_or(|s| s.0.elapsed() > FRESH) {
            let ms = kernel_ms();
            self.samples.push((Instant::now(), ms));
        }
    }

    pub fn absorb(&mut self, other: Reference) {
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|s| s.0);
    }

    /// Reference seconds per wall-clock second between `from` and `to`:
    /// above 1 while the core is faster than nominal. Taken from the samples
    /// on either side of the stretch and inside it, or from the nearest one.
    pub fn speed(&self, from: Instant, to: Instant) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 + NEAR < from);
        let hi = self.samples.partition_point(|s| s.0 <= to + NEAR);
        let window =
            &self.samples[lo.min(hi.saturating_sub(1))..hi.max(lo + 1).min(self.samples.len())];
        NOMINAL_MS * window.len() as f64 / window.iter().map(|s| s.1).sum::<f64>()
    }

    /// Time `f` with a sample on either side: its wall clock in reference
    /// seconds, the speed that priced it, and its result.
    pub fn price<R>(&mut self, f: impl FnOnce() -> R) -> (f64, f64, R) {
        self.tick();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed();
        self.tick();
        let speed = self.speed(t, t + wall);
        (wall.as_secs_f64() * speed, speed, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_near_one_and_covers_any_stretch() {
        let mut r = Reference::new();
        let (priced, _, ()) = r.price(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(priced > 0.006 && priced < 0.15, "{priced}");
        assert_eq!(r.samples.len(), 2);
        // Before the first sample and after the last one.
        let t = Instant::now();
        let early = t.checked_sub(Duration::from_secs(5)).unwrap_or(t);
        assert!(r.speed(early, early) > 0.0);
        assert!(r.speed(t + Duration::from_secs(1), t + Duration::from_secs(2)) > 0.0);
        let mut other = Reference::new();
        other.tick();
        r.absorb(other);
        assert!(r.samples.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
