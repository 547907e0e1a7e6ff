//! Per-node memory controller with a utilization-driven queueing delay.

use serde::{Deserialize, Serialize};

/// A memory controller attached to one NUMA node.
///
/// The controller counts the requests it services during the current epoch.
/// At the epoch boundary ([`MemoryController::end_epoch`]) the request count
/// and the epoch length determine a utilization `rho`, and the queueing
/// delay charged to every request in the *next* epoch follows the classic
/// M/M/1-shaped curve `coeff * rho / (1 - rho)`, capped so an overloaded
/// controller tops out around the ≈1000-cycle latency the paper reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemoryController {
    service_cycles: u32,
    queue_coeff: f64,
    queue_cap: u32,
    epoch_requests: u64,
    total_requests: u64,
    /// Queueing delay applied during the current epoch (from last epoch's load).
    current_delay: u32,
    /// Utilization measured at the last epoch boundary.
    last_utilization: f64,
}

impl MemoryController {
    /// Creates an idle controller.
    pub fn new(service_cycles: u32, queue_coeff: f64, queue_cap: u32) -> Self {
        MemoryController {
            service_cycles,
            queue_coeff,
            queue_cap,
            epoch_requests: 0,
            total_requests: 0,
            current_delay: 0,
            last_utilization: 0.0,
        }
    }

    /// Records one serviced request and returns the queueing delay (cycles)
    /// to charge on top of the base DRAM latency.
    #[inline]
    pub fn request(&mut self) -> u32 {
        self.epoch_requests += 1;
        self.total_requests += 1;
        self.current_delay
    }

    /// Closes the epoch: computes utilization from the epoch length in
    /// cycles and derives the queueing delay for the next epoch.
    pub fn end_epoch(&mut self, epoch_cycles: u64) {
        let rho = if epoch_cycles == 0 {
            0.0
        } else {
            (self.epoch_requests * u64::from(self.service_cycles)) as f64 / epoch_cycles as f64
        };
        // Clamp below 1.0 so the queue term stays finite; the cap below is
        // what actually bounds the latency.
        let rho = rho.clamp(0.0, 0.98);
        self.last_utilization = rho;
        let delay = (self.queue_coeff * rho / (1.0 - rho)).min(f64::from(self.queue_cap));
        // Exponential smoothing: the delay responds to *sustained* load.
        // Raw per-epoch feedback (load this epoch sets latency next epoch)
        // oscillates: a slow epoch lowers utilization, which speeds up the
        // next epoch, which raises it again.
        self.current_delay = ((f64::from(self.current_delay) + delay) / 2.0) as u32;
        self.epoch_requests = 0;
    }

    /// Serializes the mutable controller state (request counters, smoothed
    /// delay, last utilization); the service/queue parameters are
    /// constructor-fixed.
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.u64(self.epoch_requests);
        e.u64(self.total_requests);
        e.u32(self.current_delay);
        e.f64(self.last_utilization);
    }

    /// Restores state captured by [`MemoryController::save_into`].
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.epoch_requests = d.u64();
        self.total_requests = d.u64();
        self.current_delay = d.u32();
        self.last_utilization = d.f64();
    }

    /// Requests serviced during the (still open) current epoch.
    #[inline]
    pub fn epoch_requests(&self) -> u64 {
        self.epoch_requests
    }

    /// Requests serviced over the controller's lifetime.
    #[inline]
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Queueing delay currently charged per request, in cycles.
    #[inline]
    pub fn current_delay(&self) -> u32 {
        self.current_delay
    }

    /// Utilization measured at the most recent epoch boundary, in `[0, 1)`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.last_utilization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> MemoryController {
        MemoryController::new(12, 120.0, 900)
    }

    #[test]
    fn idle_controller_has_no_delay() {
        let mut c = controller();
        assert_eq!(c.request(), 0);
        c.end_epoch(1_000_000);
        assert_eq!(c.current_delay(), 0); // 1 request in 1M cycles ≈ idle
    }

    #[test]
    fn loaded_controller_builds_delay() {
        let mut c = controller();
        // 50k requests * 12 cycles = 600k occupied out of a 1M-cycle epoch.
        for _ in 0..50_000 {
            c.request();
        }
        c.end_epoch(1_000_000);
        assert!(c.utilization() > 0.55 && c.utilization() < 0.65);
        // First epoch after load: smoothed halfway from 0 to ~180.
        let d = c.current_delay();
        assert!(d > 50 && d < 150, "delay {d}");
        // Sustained load converges to the full queueing delay.
        for _ in 0..10 {
            for _ in 0..50_000 {
                c.request();
            }
            c.end_epoch(1_000_000);
        }
        let d = c.current_delay();
        assert!(d > 150 && d < 300, "converged delay {d}");
    }

    #[test]
    fn overloaded_controller_hits_the_cap() {
        let mut c = controller();
        for _ in 0..200_000 {
            c.request();
        }
        // Sustain the overload: the smoothed delay converges to the cap.
        for _ in 0..12 {
            for _ in 0..200_000 {
                c.request();
            }
            c.end_epoch(1_000_000); // nominal utilization 2.4, clamped
        }
        assert!(c.current_delay() >= 899, "delay {}", c.current_delay());
    }

    #[test]
    fn delay_applies_to_next_epoch_only() {
        let mut c = controller();
        for _ in 0..200_000 {
            c.request();
        }
        // Delay during the overload epoch itself is still the old (zero) one.
        assert_eq!(c.current_delay(), 0);
        c.end_epoch(1_000_000);
        assert!(c.request() > 0);
    }

    #[test]
    fn epoch_counter_resets_but_total_accumulates() {
        let mut c = controller();
        c.request();
        c.request();
        assert_eq!(c.epoch_requests(), 2);
        c.end_epoch(1000);
        assert_eq!(c.epoch_requests(), 0);
        assert_eq!(c.total_requests(), 2);
    }

    #[test]
    fn zero_length_epoch_is_idle() {
        let mut c = controller();
        c.request();
        c.end_epoch(0);
        assert_eq!(c.current_delay(), 0);
    }
}
