//! Host-speed calibration: a fixed, benchmark-owned slice of work timed
//! between requests, so that time metrics can be stated at one host
//! speed.
//!
//! The shared host this benchmark was written on runs the same code at
//! two speeds about 1.6× apart, in stretches from a tenth of a second to
//! minutes (see the README). Two sets of ten runs of identical code
//! differed by 24–42% in their medians. A slice of work the program
//! never touches, run every [`INTERVAL`] during set-up and the timed
//! phase, slows down with the host; [`host_factor`] is its
//! mean duration over [`REFERENCE`], and the time metrics are divided by
//! it.
//!
//! The slice is the program's kind of work — string-keyed hash maps,
//! formatting, and a dependent pointer chase over 512 KiB — because a
//! register-only loop does not slow down with the host (memory-bound code
//! does), and slices shorter than a millisecond did not follow the
//! host's level. It is code of this crate only, with a fixed hasher, so
//! the program under test cannot change its cost.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time between the end of one slice and the start of the next.
pub const INTERVAL: Duration = Duration::from_millis(500);

/// Duration of one slice on the 2-vCPU Intel Xeon host (2.1 GHz) the
/// benchmark was written on, at that host's fast level. Only the ratio
/// to it matters; it is a constant so that every run, of every commit,
/// is scaled to the same speed.
pub const REFERENCE: Duration = Duration::from_millis(15);

/// Hash-map rounds per slice.
const ROUNDS: usize = 8;
/// Keys per round.
const KEYS: u64 = 2000;
/// Pointer-chase steps per round.
const STEPS: usize = 200_000;
/// Entries of the pointer-chase table (`u32`, 512 KiB).
const CHASE: usize = 1 << 17;

/// Slice timings of one run.
pub struct Calibration {
    chase: Vec<u32>,
    slices_s: Vec<f64>,
    last: Instant,
}

impl Calibration {
    /// A calibration with no slices yet; builds the chase table, one
    /// cycle through every entry (Sattolo's shuffle, fixed seed).
    pub fn new() -> Calibration {
        let mut chase: Vec<u32> = (0..CHASE as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Calibration {
            chase,
            slices_s: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Runs and times one slice; returns its duration.
    pub fn slice(&mut self) -> Duration {
        let t0 = Instant::now();
        black_box(work(&self.chase));
        let took = t0.elapsed();
        self.slices_s.push(took.as_secs_f64());
        self.last = Instant::now();
        took
    }

    /// Runs a slice when [`INTERVAL`] has passed since the last one;
    /// returns the time it took (zero when none was due).
    pub fn tick(&mut self) -> Duration {
        if self.last.elapsed() >= INTERVAL {
            self.slice()
        } else {
            Duration::ZERO
        }
    }

    /// The duration of every slice timed, s.
    pub fn into_slices(self) -> Vec<f64> {
        self.slices_s
    }
}

/// Mean slice duration over [`REFERENCE`]: above 1 when the host ran
/// slower than the reference. 1 when no slice was timed.
pub fn host_factor(slices_s: &[f64]) -> f64 {
    if slices_s.is_empty() {
        return 1.0;
    }
    let mean = slices_s.iter().sum::<f64>() / slices_s.len() as f64;
    mean / REFERENCE.as_secs_f64()
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new()
    }
}

/// The slice's work.
fn work(chase: &[u32]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..KEYS {
            map.insert(format!("r{i}_{}", i * 7), i);
        }
        let mut text = String::new();
        for i in 0..KEYS {
            if let Some(v) = map.get(&format!("r{i}_{}", i * 7)) {
                acc += v;
                text.push_str(&v.to_string());
                text.push(',');
            }
        }
        acc += text.len() as u64;
        let mut p = 0usize;
        for _ in 0..STEPS {
            p = chase[p] as usize;
        }
        acc += p as u64;
    }
    acc
}
