//! Interconnect link traffic accounting and congestion delay.

use numa_topology::{Interconnect, LinkId, Route};
use serde::{Deserialize, Serialize};

/// Per-link traffic counters and congestion state for the whole interconnect.
///
/// Works like [`crate::MemoryController`] but per directed link: traffic this
/// epoch sets the congestion delay charged in the next epoch. A remote access
/// is charged the *maximum* congestion along its route (the bottleneck link),
/// not the sum — back-to-back store-and-forward queues overlap in practice.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkTraffic {
    service_cycles: u32,
    queue_coeff: f64,
    queue_cap: u32,
    epoch_requests: Vec<u64>,
    total_requests: Vec<u64>,
    current_delay: Vec<u32>,
}

impl LinkTraffic {
    /// Creates idle traffic state for every link of `topology`.
    pub fn new(
        topology: &Interconnect,
        service_cycles: u32,
        queue_coeff: f64,
        queue_cap: u32,
    ) -> Self {
        let n = topology.num_links();
        LinkTraffic {
            service_cycles,
            queue_coeff,
            queue_cap,
            epoch_requests: vec![0; n],
            total_requests: vec![0; n],
            current_delay: vec![0; n],
        }
    }

    /// Records one request traversing `route`; returns the congestion delay
    /// (cycles) of the bottleneck link on the route.
    #[inline]
    pub fn traverse(&mut self, route: Route<'_>) -> u32 {
        let mut worst = 0;
        for &l in route.links() {
            let i = l.index();
            self.epoch_requests[i] += 1;
            self.total_requests[i] += 1;
            worst = worst.max(self.current_delay[i]);
        }
        worst
    }

    /// Closes the epoch: derives each link's congestion delay for the next
    /// epoch from its utilization during this one.
    pub fn end_epoch(&mut self, epoch_cycles: u64) {
        for i in 0..self.epoch_requests.len() {
            let rho = if epoch_cycles == 0 {
                0.0
            } else {
                (self.epoch_requests[i] * u64::from(self.service_cycles)) as f64
                    / epoch_cycles as f64
            };
            let rho = rho.clamp(0.0, 0.98);
            let delay = (self.queue_coeff * rho / (1.0 - rho)).min(f64::from(self.queue_cap));
            // Smoothed like the controllers (see MemoryController::end_epoch).
            self.current_delay[i] = ((f64::from(self.current_delay[i]) + delay) / 2.0) as u32;
            self.epoch_requests[i] = 0;
        }
    }

    /// Serializes the per-link counters and congestion delays (the queue
    /// parameters are constructor-fixed).
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.epoch_requests.iter(), |e, &v| e.u64(v));
        e.seq(self.total_requests.iter(), |e, &v| e.u64(v));
        e.seq(self.current_delay.iter(), |e, &v| e.u32(v));
    }

    /// Restores state captured by [`LinkTraffic::save_into`] onto traffic
    /// state built for the same interconnect.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let epoch = d.seq(|d| d.u64());
        assert_eq!(
            epoch.len(),
            self.epoch_requests.len(),
            "checkpoint link count"
        );
        self.epoch_requests = epoch;
        self.total_requests = d.seq(|d| d.u64());
        self.current_delay = d.seq(|d| d.u32());
    }

    /// Lifetime request count of one link.
    #[inline]
    pub fn total_requests(&self, link: LinkId) -> u64 {
        self.total_requests[link.index()]
    }

    /// Congestion delay currently charged by one link, in cycles.
    #[inline]
    pub fn current_delay(&self, link: LinkId) -> u32 {
        self.current_delay[link.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::NodeId;

    fn n(i: usize) -> NodeId {
        NodeId::from(i)
    }

    #[test]
    fn traffic_counts_per_link() {
        let ic = Interconnect::new(3, &[(0, 1), (1, 2)]);
        let mut lt = LinkTraffic::new(&ic, 6, 60.0, 400);
        let route = ic.route(n(0), n(2));
        assert_eq!(route.hops(), 2);
        lt.traverse(route);
        lt.traverse(route);
        for &l in route.links() {
            assert_eq!(lt.total_requests(l), 2);
        }
    }

    #[test]
    fn congestion_builds_on_hot_link() {
        let ic = Interconnect::new(3, &[(0, 1), (1, 2)]);
        let mut lt = LinkTraffic::new(&ic, 6, 60.0, 400);
        let hot = ic.route(n(0), n(1));
        // Sustained load (smoothing needs a few epochs to converge).
        for _ in 0..6 {
            for _ in 0..100_000 {
                lt.traverse(hot);
            }
            lt.end_epoch(1_000_000); // rho = 0.6 on the hot link
        }
        assert!(lt.traverse(hot) > 50);
        // The unrelated link 1 -> 2 stays uncongested.
        let cold = ic.route(n(1), n(2));
        assert_eq!(lt.traverse(cold), 0);
    }

    #[test]
    fn bottleneck_is_max_not_sum() {
        let ic = Interconnect::new(3, &[(0, 1), (1, 2)]);
        let mut lt = LinkTraffic::new(&ic, 6, 60.0, 400);
        // Load only the first hop.
        let first = ic.route(n(0), n(1));
        for _ in 0..6 {
            for _ in 0..100_000 {
                lt.traverse(first);
            }
            lt.end_epoch(1_000_000);
        }
        let through = ic.route(n(0), n(2));
        let d_through = lt.traverse(through);
        let d_first = lt.traverse(first);
        assert_eq!(d_through, d_first, "two-hop delay equals bottleneck delay");
    }

    #[test]
    fn empty_route_has_no_delay() {
        let ic = Interconnect::full_mesh(2);
        let mut lt = LinkTraffic::new(&ic, 6, 60.0, 400);
        let local = ic.route(n(0), n(0));
        assert_eq!(lt.traverse(local), 0);
    }
}
