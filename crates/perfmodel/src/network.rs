//! LogGP-style communication cost model.

/// Point-to-point and collective communication costs.
///
/// `t(msg) = latency + bytes · per_byte` — the α–β model, the standard
/// first-order description of cluster interconnects. Collectives are priced
/// as binomial trees of point-to-point messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in seconds (α).
    pub latency_s: f64,
    /// Seconds per payload byte (β = 1/bandwidth).
    pub per_byte_s: f64,
}

impl NetworkModel {
    /// A model with the given α/β.
    pub fn new(latency_s: f64, per_byte_s: f64) -> Self {
        assert!(
            latency_s >= 0.0 && per_byte_s >= 0.0,
            "NetworkModel: negative costs"
        );
        Self {
            latency_s,
            per_byte_s,
        }
    }

    /// Typical commodity-cluster numbers: 1 µs latency, 10 GB/s links.
    pub fn cluster_default() -> Self {
        Self::new(1e-6, 1e-10)
    }

    /// An infinitely fast network (for isolating compute effects).
    pub fn ideal() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Time of one point-to-point message.
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.latency_s + self.per_byte_s * bytes as f64
    }

    /// Time of an allreduce of `bytes` over `p` ranks: binomial-tree reduce
    /// plus binomial-tree broadcast, `2·⌈log₂ p⌉` message steps on the
    /// critical path.
    pub fn allreduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        2.0 * rounds * self.p2p(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_is_affine() {
        let n = NetworkModel::new(1e-6, 1e-9);
        assert!((n.p2p(0) - 1e-6).abs() < 1e-18);
        assert!((n.p2p(1000) - (1e-6 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let n = NetworkModel::new(1e-6, 0.0);
        let t2 = n.allreduce(8, 2);
        let t4 = n.allreduce(8, 4);
        let t64 = n.allreduce(8, 64);
        assert!((t4 / t2 - 2.0).abs() < 1e-12);
        assert!((t64 / t2 - 6.0).abs() < 1e-12);
        assert_eq!(n.allreduce(8, 1), 0.0);
    }

    #[test]
    fn ideal_network_is_free() {
        let n = NetworkModel::ideal();
        assert_eq!(n.p2p(1 << 20), 0.0);
        assert_eq!(n.allreduce(1 << 20, 64), 0.0);
    }
}
