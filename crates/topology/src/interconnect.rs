//! Point-to-point interconnect graph and shortest-path routing.
//!
//! NUMA nodes are connected by directed links (a physical HyperTransport
//! cable is modelled as two directed links, one per direction, because the
//! two directions carry independent traffic). Routes are shortest paths
//! computed with BFS; ties are broken deterministically by preferring the
//! lowest-numbered next hop, which mirrors the static routing tables of real
//! Opteron systems.

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a directed interconnect link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct LinkId(pub u16);

impl LinkId {
    /// Returns the link id as a `usize` index, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A route between two nodes: the ordered list of directed links traversed,
/// borrowed from the interconnect's flat route table.
///
/// A route between a node and itself is empty.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route<'a> {
    links: &'a [LinkId],
}

impl<'a> Route<'a> {
    /// Number of interconnect hops on this route.
    #[inline]
    pub fn hops(&self) -> u32 {
        self.links.len() as u32
    }

    /// The directed links traversed, in order.
    #[inline]
    pub fn links(&self) -> &'a [LinkId] {
        self.links
    }
}

/// The interconnect: a directed link graph plus precomputed all-pairs routes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Interconnect {
    num_nodes: usize,
    /// `endpoints[l]` = (source node, destination node) of directed link `l`.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Every route's links, back to back, in `(src, dst)` order: one
    /// allocation however many node pairs there are.
    route_links: Vec<LinkId>,
    /// `route_links[route_start[i]..route_start[i + 1]]` is the route of
    /// pair `i = src * num_nodes + dst`.
    route_start: Vec<u32>,
}

impl Interconnect {
    /// Builds an interconnect from an undirected adjacency list.
    ///
    /// Each `(a, b)` pair creates two directed links, `a -> b` and `b -> a`.
    /// Routes are then precomputed for every ordered node pair.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= num_nodes`, if an edge is a
    /// self-loop, or if the resulting graph is not connected (a NUMA machine
    /// with unreachable memory is not a meaningful configuration).
    pub fn new(num_nodes: usize, undirected_edges: &[(usize, usize)]) -> Self {
        assert!(num_nodes > 0, "interconnect needs at least one node");
        let mut endpoints = Vec::with_capacity(undirected_edges.len() * 2);
        // `adj[n]` = list of (neighbor, link id used to reach it).
        let mut adj: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); num_nodes];
        for &(a, b) in undirected_edges {
            assert!(
                a < num_nodes && b < num_nodes,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop edge on node {a}");
            let fwd = LinkId(endpoints.len() as u16);
            endpoints.push((NodeId::from(a), NodeId::from(b)));
            let rev = LinkId(endpoints.len() as u16);
            endpoints.push((NodeId::from(b), NodeId::from(a)));
            adj[a].push((b, fwd));
            adj[b].push((a, rev));
        }
        // Deterministic tie-break: explore lowest-numbered neighbors first.
        for list in &mut adj {
            list.sort_by_key(|&(n, _)| n);
        }

        let mut route_links = Vec::new();
        let mut route_start = Vec::with_capacity(num_nodes * num_nodes + 1);
        route_start.push(0);
        for src in 0..num_nodes {
            // BFS from `src`, recording the (parent, link) tree.
            let mut parent: Vec<Option<(usize, LinkId)>> = vec![None; num_nodes];
            let mut visited = vec![false; num_nodes];
            visited[src] = true;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(src);
            while let Some(n) = queue.pop_front() {
                for &(next, link) in &adj[n] {
                    if !visited[next] {
                        visited[next] = true;
                        parent[next] = Some((n, link));
                        queue.push_back(next);
                    }
                }
            }
            for (dst, &reached) in visited.iter().enumerate() {
                assert!(
                    reached,
                    "interconnect graph is disconnected: {dst} unreachable from {src}"
                );
                let first = route_links.len();
                let mut cur = dst;
                while cur != src {
                    let (prev, link) = parent[cur].expect("BFS parent missing");
                    route_links.push(link);
                    cur = prev;
                }
                route_links[first..].reverse();
                route_start.push(route_links.len() as u32);
            }
        }

        Interconnect {
            num_nodes,
            endpoints,
            route_links,
            route_start,
        }
    }

    /// Builds a fully-connected interconnect (every node pair is one hop).
    pub fn full_mesh(num_nodes: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..num_nodes {
            for b in (a + 1)..num_nodes {
                edges.push((a, b));
            }
        }
        Interconnect::new(num_nodes, &edges)
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed links in the graph.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.endpoints.len()
    }

    /// Source and destination nodes of a directed link.
    #[inline]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        self.endpoints[link.index()]
    }

    /// The precomputed shortest route from `src` to `dst`.
    #[inline]
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route<'_> {
        let i = src.index() * self.num_nodes + dst.index();
        let (start, end) = (self.route_start[i], self.route_start[i + 1]);
        Route {
            links: &self.route_links[start as usize..end as usize],
        }
    }

    /// Number of hops between two nodes (0 if they are the same node).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.route(src, dst).hops()
    }

    /// The largest hop count between any node pair (the network diameter).
    pub fn diameter(&self) -> u32 {
        self.route_start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from(i)
    }

    #[test]
    fn full_mesh_is_one_hop() {
        let ic = Interconnect::full_mesh(4);
        assert_eq!(ic.num_nodes(), 4);
        assert_eq!(ic.num_links(), 4 * 3);
        for a in 0..4usize {
            for b in 0..4usize {
                let expect = u32::from(a != b);
                assert_eq!(ic.hops(n(a), n(b)), expect);
            }
        }
        assert_eq!(ic.diameter(), 1);
    }

    #[test]
    fn line_graph_routes_are_shortest() {
        // 0 - 1 - 2 - 3
        let ic = Interconnect::new(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(ic.hops(n(0), n(3)), 3);
        assert_eq!(ic.hops(n(3), n(0)), 3);
        assert_eq!(ic.hops(n(1), n(2)), 1);
        assert_eq!(ic.diameter(), 3);
    }

    #[test]
    fn routes_traverse_consistent_links() {
        let ic = Interconnect::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let route = ic.route(n(0), n(2));
        assert_eq!(route.hops(), 2);
        // The route must form a connected chain from 0 to 2.
        let mut at = NodeId(0);
        for &l in route.links() {
            let (src, dst) = ic.link_endpoints(l);
            assert_eq!(src, at);
            at = dst;
        }
        assert_eq!(at, NodeId(2));
    }

    #[test]
    fn self_route_is_empty() {
        let ic = Interconnect::full_mesh(3);
        assert_eq!(ic.route(n(1), n(1)).hops(), 0);
        assert!(ic.route(n(1), n(1)).links().is_empty());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_graph_panics() {
        let _ = Interconnect::new(4, &[(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = Interconnect::new(2, &[(0, 0), (0, 1)]);
    }

    #[test]
    fn routing_is_deterministic() {
        let a = Interconnect::new(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let b = Interconnect::new(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        for s in 0..5usize {
            for d in 0..5usize {
                assert_eq!(a.route(n(s), n(d)), b.route(n(s), n(d)));
            }
        }
    }
}
