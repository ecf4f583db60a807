//! Human-editable JSON interchange for topologies and traffic.
//!
//! Lets downstream users define experiments without writing Rust: a
//! network description file carries named nodes, physical
//! (bidirectional) links, and flows. Directed asymmetric links can be
//! expressed by setting `bidi: false` on an entry.
//!
//! ```json
//! {
//!   "nodes": ["a", "b", "c"],
//!   "links": [
//!     { "from": "a", "to": "b", "capacity_bps": 1e7, "prop_delay_s": 0.001 },
//!     { "from": "b", "to": "c", "capacity_bps": 1e7, "prop_delay_s": 0.002,
//!       "bidi": false }
//!   ],
//!   "flows": [ { "src": "a", "dst": "c", "rate_bps": 2e6 } ]
//! }
//! ```

use crate::error::NetError;
use crate::graph::{Topology, TopologyBuilder};
use crate::traffic::Flow;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A network description as serialized to/from JSON.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct NetworkSpec {
    /// Node names; the index in this list is the node's address.
    pub nodes: Vec<String>,
    /// Links between named nodes.
    pub links: Vec<LinkSpec>,
    /// Offered flows between named nodes.
    #[serde(default)]
    pub flows: Vec<FlowSpec>,
}

/// One link entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LinkSpec {
    /// Name of the transmitting node.
    pub from: String,
    /// Name of the receiving node.
    pub to: String,
    /// Capacity in bits/second.
    pub capacity_bps: f64,
    /// Propagation delay in seconds.
    pub prop_delay_s: f64,
    /// Add the reverse direction too (default true).
    #[serde(default = "default_true")]
    pub bidi: bool,
}

/// One flow entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct FlowSpec {
    /// Source node name.
    pub src: String,
    /// Destination node name.
    pub dst: String,
    /// Offered rate in bits/second.
    pub rate_bps: f64,
}

fn default_true() -> bool {
    true
}

/// Errors loading a [`NetworkSpec`].
#[derive(Debug)]
pub enum SpecError {
    /// JSON syntax / shape problem.
    Json(serde_json::Error),
    /// A link or flow referenced an undeclared node name.
    UnknownName(String),
    /// The resulting topology was structurally invalid.
    Net(NetError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::UnknownName(n) => write!(f, "unknown node name {n:?}"),
            SpecError::Net(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        SpecError::Json(e)
    }
}

impl From<NetError> for SpecError {
    fn from(e: NetError) -> Self {
        SpecError::Net(e)
    }
}

impl NetworkSpec {
    /// Parse from JSON text.
    pub fn from_json(s: &str) -> Result<Self, SpecError> {
        Ok(serde_json::from_str(s)?)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Build the topology and flow list this spec describes.
    pub fn build(&self) -> Result<(Topology, Vec<Flow>), SpecError> {
        let mut b = TopologyBuilder::new();
        for name in &self.nodes {
            b.add_node(name.clone());
        }
        let lookup = |name: &str| {
            self.nodes
                .iter()
                .position(|n| n == name)
                .map(crate::ids::NodeId::from)
                .ok_or_else(|| SpecError::UnknownName(name.to_string()))
        };
        let mut builder = b;
        for l in &self.links {
            let from = lookup(&l.from)?;
            let to = lookup(&l.to)?;
            builder = if l.bidi {
                builder.bidi(from, to, l.capacity_bps, l.prop_delay_s)
            } else {
                builder.link(from, to, l.capacity_bps, l.prop_delay_s)
            };
        }
        let topo = builder.build()?;
        let mut flows = Vec::with_capacity(self.flows.len());
        for f in &self.flows {
            flows.push(Flow::new(lookup(&f.src)?, lookup(&f.dst)?, f.rate_bps));
        }
        Ok((topo, flows))
    }

    /// Describe an existing topology + flows as a spec (inverse of
    /// [`NetworkSpec::build`], modulo link ordering).
    pub fn describe(topo: &Topology, flows: &[Flow]) -> Self {
        let mut links: Vec<LinkSpec> = Vec::new();
        for l in topo.links() {
            // Emit each bidirectional pair once, as one `bidi` entry, if
            // the reverse exists with identical parameters.
            let rev = topo.link_between(l.to, l.from).map(|id| *topo.link(id));
            #[expect(clippy::float_cmp, reason = "one `bidi` entry only for bit-equal parameters")]
            let symmetric = rev
                .map(|r| r.capacity == l.capacity && r.prop_delay == l.prop_delay)
                .unwrap_or(false);
            if symmetric && l.from > l.to {
                continue; // the partner entry covers this direction
            }
            links.push(LinkSpec {
                from: topo.name(l.from).to_string(),
                to: topo.name(l.to).to_string(),
                capacity_bps: l.capacity,
                prop_delay_s: l.prop_delay,
                bidi: symmetric,
            });
        }
        NetworkSpec {
            nodes: topo.nodes().map(|n| topo.name(n).to_string()).collect(),
            links,
            flows: flows
                .iter()
                .map(|f| FlowSpec {
                    src: topo.name(f.src).to_string(),
                    dst: topo.name(f.dst).to_string(),
                    rate_bps: f.rate,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    const SAMPLE: &str = r#"{
        "nodes": ["a", "b", "c"],
        "links": [
            { "from": "a", "to": "b", "capacity_bps": 1e7, "prop_delay_s": 0.001 },
            { "from": "b", "to": "c", "capacity_bps": 5e6, "prop_delay_s": 0.002, "bidi": false }
        ],
        "flows": [ { "src": "a", "dst": "c", "rate_bps": 2e6 } ]
    }"#;

    #[test]
    fn parse_and_build() {
        let spec = NetworkSpec::from_json(SAMPLE).unwrap();
        let (t, flows) = spec.build().unwrap();
        assert_eq!(t.node_count(), 3);
        // a-b bidi (2 directed) + b->c single = 3 directed links.
        assert_eq!(t.link_count(), 3);
        assert!(t.link_between(NodeId(0), NodeId(1)).is_some());
        assert!(t.link_between(NodeId(1), NodeId(0)).is_some());
        assert!(t.link_between(NodeId(2), NodeId(1)).is_none());
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].rate, 2e6);
    }

    #[test]
    fn unknown_name_rejected() {
        let bad = SAMPLE.replace("\"src\": \"a\"", "\"src\": \"zz\"");
        let spec = NetworkSpec::from_json(&bad).unwrap();
        assert!(matches!(spec.build(), Err(SpecError::UnknownName(_))));
    }

    #[test]
    fn invalid_json_rejected() {
        assert!(matches!(NetworkSpec::from_json("{"), Err(SpecError::Json(_))));
    }

    #[test]
    fn invalid_network_rejected() {
        let spec = NetworkSpec {
            nodes: vec!["a".into()],
            links: vec![LinkSpec {
                from: "a".into(),
                to: "a".into(),
                capacity_bps: 1e6,
                prop_delay_s: 0.0,
                bidi: true,
            }],
            flows: vec![],
        };
        assert!(matches!(spec.build(), Err(SpecError::Net(_))));
    }

    #[test]
    fn describe_roundtrips_cairn() {
        let t = crate::topo::cairn();
        let flows = crate::topo::cairn_flows(&t, 1e6);
        let spec = NetworkSpec::describe(&t, &flows);
        let (t2, flows2) = spec.build().unwrap();
        assert_eq!(t.node_count(), t2.node_count());
        assert_eq!(t.link_count(), t2.link_count());
        for l in t.links() {
            let id = t2
                .link_between(
                    t2.node_by_name(t.name(l.from)).unwrap(),
                    t2.node_by_name(t.name(l.to)).unwrap(),
                )
                .expect("link preserved");
            let l2 = t2.link(id);
            assert_eq!(l2.capacity, l.capacity);
            assert_eq!(l2.prop_delay, l.prop_delay);
        }
        assert_eq!(flows.len(), flows2.len());
    }

    #[test]
    fn json_text_roundtrip() {
        let spec = NetworkSpec::from_json(SAMPLE).unwrap();
        let again = NetworkSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn asymmetric_links_survive_describe() {
        let spec = NetworkSpec::from_json(SAMPLE).unwrap();
        let (t, flows) = spec.build().unwrap();
        let desc = NetworkSpec::describe(&t, &flows);
        let (t2, _) = desc.build().unwrap();
        assert_eq!(t2.link_count(), 3);
        assert!(t2.link_between(NodeId(2), NodeId(1)).is_none());
    }
}
