//! The analytic ("modeled") execution engine.
//!
//! For configurations too large to execute numerically on one host — the
//! paper's 1000-rank, 200^3-element runs — a [`VirtualRank`] replays the
//! *cost* of the communication/computation sequence a real rank would
//! execute, using the same [`NetworkModel`]/[`ComputeModel`] and the same
//! per-message overhead constants as the threaded engine. The integration
//! test `model_validation` checks the two engines agree at small scale.
//!
//! The virtual rank represents the *critical* rank of a bulk-synchronous
//! application: peers are assumed to reach each phase at the same virtual
//! time (exact under perfect weak scaling, slightly pessimistic otherwise).

use crate::comm::{HEADER_BYTES, RECV_OVERHEAD, SEND_OVERHEAD};
use crate::network::NetworkModel;
use crate::rng::{hash_prefix, jitter_from_prefix};
use crate::work::{ComputeModel, Work};

/// Smallest `d` with `2^d >= n`.
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    assert!(n > 0);
    (n as u64).next_power_of_two().trailing_zeros()
}

/// One modeled halo-exchange message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualMsg {
    /// Peer rank id (keys the jitter hash only).
    pub peer: usize,
    /// Payload bytes.
    pub bytes: f64,
    /// Peer lives on the same node.
    pub same_node: bool,
    /// Peer's node shares this rank's placement group.
    pub same_group: bool,
}

/// A [`VirtualMsg`] with every seed- and sequence-independent cost
/// evaluated once, by [`VirtualRank::prepare`]. Charging it again only
/// draws the message's jitter; the values are the same `f64` expressions
/// the per-message pricing evaluates, so a replay over prepared messages
/// is bitwise identical to pricing every message in full.
#[derive(Debug, Clone, Copy)]
pub struct PreparedMsg {
    /// CPU time to post the send: `SEND_OVERHEAD + (bytes + HEADER_BYTES) / intra_bw`.
    send: f64,
    /// Arrival latency before contention and jitter.
    latency: f64,
    /// Drain time, `(bytes + HEADER_BYTES) / bw`, before contention and jitter.
    drain: f64,
    /// On-node messages are neither contended nor jittered.
    on_node: bool,
    /// [`hash_prefix`] of `(seed, peer, rank)`.
    prefix: u64,
}

/// A binomial-tree all-reduce of a fixed width with its per-level
/// messages prepared ([`VirtualRank::prepare_allreduce`]).
#[derive(Debug, Clone)]
pub struct PreparedAllreduce {
    /// One message per tree level; the reduce and broadcast phases each
    /// walk all of them.
    levels: Vec<PreparedMsg>,
    /// Combine flops on the reduce path.
    combine: Work,
}

/// The environment a virtual rank runs in.
#[derive(Debug, Clone)]
pub struct VirtualEnv {
    /// Interconnect model.
    pub net: NetworkModel,
    /// Per-core compute model.
    pub compute: ComputeModel,
    /// Ranks sharing this rank's NIC.
    pub nic_sharers: usize,
    /// Nodes in the job.
    pub nodes_active: usize,
    /// Total ranks in the job.
    pub size: usize,
    /// This rank's id (keys the jitter hash).
    pub rank: usize,
    /// Experiment seed.
    pub seed: u64,
}

/// Cost-only replay of one rank's execution.
#[derive(Debug, Clone)]
pub struct VirtualRank {
    env: VirtualEnv,
    /// `net.fabric_contention(nodes_active)`, fixed for the job.
    contention: f64,
    clock: f64,
    seq: u64,
}

impl VirtualRank {
    /// Creates a virtual rank at clock zero.
    pub fn new(env: VirtualEnv) -> Self {
        assert!(env.size > 0 && env.rank < env.size);
        VirtualRank {
            contention: env.net.fabric_contention(env.nodes_active),
            env,
            clock: 0.0,
            seq: 0,
        }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Charges computation, as [`crate::SimComm::compute`] does.
    pub fn compute(&mut self, work: Work) {
        self.clock += self.env.compute.time(work);
    }

    /// Evaluates `m`'s seed- and sequence-independent costs for this rank.
    pub fn prepare(&self, m: &VirtualMsg) -> PreparedMsg {
        let net = &self.env.net;
        let wire = m.bytes + HEADER_BYTES;
        let (latency, drain) = net.base_cost(wire, m.same_node, m.same_group, self.env.nic_sharers);
        PreparedMsg {
            send: SEND_OVERHEAD + wire / net.intra_bw,
            latency,
            drain,
            on_node: m.same_node,
            prefix: hash_prefix(self.env.seed, m.peer as u64, self.env.rank as u64),
        }
    }

    /// Prices the next message of the stream as `(latency, drain)`,
    /// mirroring [`NetworkModel::transfer_cost`]. On-node messages take a
    /// sequence number too, so later jitter draws do not depend on
    /// placement.
    #[inline]
    fn charge(&mut self, m: &PreparedMsg) -> (f64, f64) {
        let seq = self.seq;
        self.seq += 1;
        if m.on_node {
            return (m.latency, m.drain);
        }
        let s = self.contention * jitter_from_prefix(m.prefix, seq, self.env.net.jitter_sigma);
        (m.latency * s, m.drain * s)
    }

    /// Charges a neighbour halo exchange: post all sends, then drain all
    /// receives (the overlap pattern the FEM ghost update uses). Peers are
    /// assumed to start the exchange at the same virtual time.
    pub fn halo_exchange(&mut self, msgs: &[VirtualMsg]) {
        let prepared: Vec<PreparedMsg> = msgs.iter().map(|m| self.prepare(m)).collect();
        self.halo_exchange_prepared(&prepared);
    }

    /// [`Self::halo_exchange`] over prepared messages.
    pub fn halo_exchange_prepared(&mut self, msgs: &[PreparedMsg]) {
        if msgs.is_empty() {
            return;
        }
        // Sends: fixed overhead + packing, serialized on the CPU.
        for m in msgs {
            self.clock += m.send;
        }
        let depart = self.clock;
        // Receives, mirroring `SimComm::recv`: each message becomes
        // available after its latency (peers posted at ~the same time, so
        // latencies overlap), then drains serially through this rank's NIC.
        for m in msgs {
            let (latency, drain) = self.charge(m);
            self.clock = self.clock.max(depart + latency) + drain + RECV_OVERHEAD;
        }
    }

    /// Charges a halo exchange whose transfers overlap with `interior`
    /// compute, mirroring the threaded engine's post/compute/`wait_all`
    /// sequence (`spmv_overlapped`): sends are posted up front, each
    /// message's full transfer (latency + drain) then progresses while the
    /// interior work runs, and the wait point only stalls for whatever the
    /// compute did not cover.
    pub fn halo_exchange_overlapped(&mut self, msgs: &[PreparedMsg], interior: Work) {
        if msgs.is_empty() {
            self.compute(interior);
            return;
        }
        for m in msgs {
            self.clock += m.send;
        }
        let depart = self.clock;
        // A message's arrival does not depend on the clock, so the interior
        // work is charged first and each arrival folded in as it is priced.
        self.compute(interior);
        for m in msgs {
            let (latency, drain) = self.charge(m);
            self.clock = self.clock.max(depart + latency + drain) + RECV_OVERHEAD;
        }
    }

    /// One message per tree level `0..ceil(log2 size)`, each carrying
    /// `bytes` to the partner `rank ^ 1`. Level `k` edges connect ranks
    /// `2^k` apart; under block placement those stay on one node while
    /// `2^k` is below the ranks-per-node count, which is why small jobs on
    /// many-core nodes see cheap collectives.
    fn tree_levels(&self, bytes: f64) -> Vec<PreparedMsg> {
        (0..ceil_log2(self.env.size))
            .map(|level| {
                self.prepare(&VirtualMsg {
                    peer: self.env.rank ^ 1,
                    bytes,
                    same_node: (1usize << level) < self.env.nic_sharers,
                    same_group: true,
                })
            })
            .collect()
    }

    /// Prepares an all-reduce of `n` doubles for
    /// [`Self::allreduce_prepared`].
    pub fn prepare_allreduce(&self, n: usize) -> PreparedAllreduce {
        let depth = ceil_log2(self.env.size) as f64;
        PreparedAllreduce {
            levels: self.tree_levels(8.0 * n as f64),
            combine: Work::new(depth * n as f64, depth * 16.0 * n as f64),
        }
    }

    /// Charges a binomial-tree reduce + broadcast all-reduce of `n` doubles,
    /// mirroring [`crate::SimComm::allreduce`]. The modeled rank pays the
    /// worst-case tree depth on both phases.
    pub fn allreduce(&mut self, n: usize) {
        let prepared = self.prepare_allreduce(n);
        self.allreduce_prepared(&prepared);
    }

    /// [`Self::allreduce`] over a prepared reduction.
    pub fn allreduce_prepared(&mut self, p: &PreparedAllreduce) {
        if p.levels.is_empty() {
            return;
        }
        for m in p.levels.iter().chain(&p.levels) {
            let (lat, drain) = self.charge(m);
            self.clock += m.send + lat + drain + RECV_OVERHEAD;
        }
        self.compute(p.combine);
    }

    /// Charges a dissemination barrier (`ceil(log2 p)` rounds of empty
    /// messages), with the same per-level node locality as [`Self::allreduce`].
    pub fn barrier(&mut self) {
        for m in self.tree_levels(0.0) {
            let (lat, drain) = self.charge(&m);
            self.clock += m.send + lat + drain + RECV_OVERHEAD;
        }
    }

    /// Advances the clock without attributing work.
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.clock += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MsgContext;
    use crate::topology::ClusterTopology;

    fn env(size: usize, net: NetworkModel) -> VirtualEnv {
        let topo = ClusterTopology::uniform(size.div_ceil(4).max(1), 4);
        VirtualEnv {
            net,
            compute: ComputeModel::new(1e9, 4e9),
            nic_sharers: topo.ranks_on_node(0, size),
            nodes_active: topo.nodes_for_ranks(size),
            size,
            rank: 0,
            seed: 7,
        }
    }

    #[test]
    fn prepared_charge_is_bitwise_transfer_cost() {
        for net in [
            NetworkModel::gigabit_ethernet(),
            NetworkModel::ten_gig_ethernet_ec2(),
            NetworkModel::infiniband_ddr(),
        ] {
            let mut e = env(200, net.clone());
            e.rank = 37;
            let mut v = VirtualRank::new(e.clone());
            for (i, (same_node, same_group)) in [(true, true), (false, true), (false, false)]
                .into_iter()
                .enumerate()
            {
                let m = VirtualMsg {
                    peer: 11 + i,
                    bytes: 1234.5 * (i + 1) as f64,
                    same_node,
                    same_group,
                };
                let p = v.prepare(&m);
                for _ in 0..50 {
                    let seq = v.seq;
                    let want = net.transfer_cost(MsgContext {
                        bytes: m.bytes + HEADER_BYTES,
                        same_node,
                        same_group,
                        nic_sharers: e.nic_sharers,
                        nodes_active: e.nodes_active,
                        jitter_key: (e.seed, m.peer as u64, e.rank as u64, seq),
                    });
                    let got = v.charge(&p);
                    assert_eq!(got.0.to_bits(), want.0.to_bits());
                    assert_eq!(got.1.to_bits(), want.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(1000), 10);
    }

    #[test]
    fn compute_matches_roofline() {
        let mut v = VirtualRank::new(env(1, NetworkModel::ideal()));
        v.compute(Work::new(3e9, 0.0));
        assert!((v.clock() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn halo_exchange_costs_at_least_one_transfer() {
        let mut v = VirtualRank::new(env(8, NetworkModel::gigabit_ethernet()));
        let msgs = vec![VirtualMsg {
            peer: 1,
            bytes: 1e6,
            same_node: false,
            same_group: true,
        }];
        v.halo_exchange(&msgs);
        // >= latency + bytes / (bw / sharers).
        assert!(
            v.clock() > 45e-6 + 1e6 / (117e6 / 4.0) * 0.9,
            "clock = {}",
            v.clock()
        );
    }

    #[test]
    fn more_neighbors_cost_more() {
        let one = {
            let mut v = VirtualRank::new(env(27, NetworkModel::gigabit_ethernet()));
            v.halo_exchange(&[VirtualMsg {
                peer: 1,
                bytes: 1e5,
                same_node: false,
                same_group: true,
            }]);
            v.clock()
        };
        let many = {
            let mut v = VirtualRank::new(env(27, NetworkModel::gigabit_ethernet()));
            let msgs: Vec<_> = (0..26)
                .map(|p| VirtualMsg {
                    peer: p,
                    bytes: 1e5,
                    same_node: false,
                    same_group: true,
                })
                .collect();
            v.halo_exchange(&msgs);
            v.clock()
        };
        assert!(many > one);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let cost = |p: usize| {
            let mut e = env(p, NetworkModel::infiniband_ddr());
            e.nic_sharers = 1;
            let mut v = VirtualRank::new(e);
            v.allreduce(1);
            v.clock()
        };
        let t8 = cost(8);
        let t64 = cost(64);
        let t512 = cost(512);
        // Depth grows 3 -> 6 -> 9: roughly linear in log p.
        assert!(t64 / t8 > 1.5 && t64 / t8 < 2.5, "ratio {}", t64 / t8);
        assert!(t512 / t64 > 1.2 && t512 / t64 < 1.8, "ratio {}", t512 / t64);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let mut v = VirtualRank::new(env(1, NetworkModel::gigabit_ethernet()));
        v.allreduce(10);
        v.barrier();
        assert_eq!(v.clock(), 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut v = VirtualRank::new(env(64, NetworkModel::ten_gig_ethernet_ec2()));
            for _ in 0..10 {
                v.halo_exchange(&[VirtualMsg {
                    peer: 3,
                    bytes: 5e4,
                    same_node: false,
                    same_group: true,
                }]);
                v.allreduce(1);
            }
            v.clock()
        };
        assert_eq!(run(), run());
    }
}
