//! Order statistics, the result checksum, and the few process readings
//! (`VmHWM`, load average) the benchmark reports.

/// The `q`-quantile (0..=1) of `samples` by nearest rank on a sorted copy.
/// Empty input reads 0 so an unexercised layer prints a plain zero.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of the slowest tenth of the samples (at least one). Commit cost is
/// a ramp in corpus size, so single high order statistics do not repeat
/// between runs while this mean does.
pub fn tail10(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = (sorted.len() / 10).max(1);
    sorted[sorted.len() - n..].iter().sum::<f64>() / n as f64
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// 64-bit FNV-1a: the input hash and the result checksum. Chosen because
/// it is order-sensitive, dependency-free and identical on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A fixed integer loop that touches no memory: how fast this machine is
/// right now, in milliseconds. Reported beside the results because the
/// reference sandbox's CPU speed itself moves in plateaus of seconds.
pub fn cpu_reference_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x ^ i)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .rotate_left(17);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status) / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0.0)
}

/// The 1-minute load average, if the platform exposes it.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail10_is_the_mean_of_the_slowest_tenth() {
        let v: Vec<f64> = (1..=96).map(f64::from).collect();
        // 96 / 10 = 9 samples: 88..=96.
        assert_eq!(tail10(&v), (88..=96).sum::<i32>() as f64 / 9.0);
        assert_eq!(tail10(&[5.0, 1.0]), 5.0);
        assert_eq!(tail10(&[]), 0.0);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tstbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), 2048.0);
        assert_eq!(parse_vm_hwm_kb("nothing here"), 0.0);
    }
}
