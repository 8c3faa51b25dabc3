//! The one host, through its public API over the channel transport:
//! crash-stop, who reports the transport's metrics sheet, and when the
//! host is done. (`many_nodes.rs` and `tcp_cluster.rs` cover the same
//! host over real sockets.)

use d2_net::{Host, NodeSpec};
use d2_ring::messages::Addr;
use d2_types::Key;
use d2_wire::client::WireClient;
use d2_wire::codec::{Request, Response};
use d2_wire::metrics::NetMetrics;
use d2_wire::transport::{ChannelHub, ChannelTransport, Transport, TransportError};
use d2_wire::WireMsg;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

/// A channel hub, a host on it, and a client; `add` puts a node at
/// the next address.
struct Rig {
    hub: ChannelHub,
    host: Host<ChannelTransport>,
    sheet: Arc<NetMetrics>,
}

impl Rig {
    fn new() -> Rig {
        let sheet = Arc::new(NetMetrics::new());
        Rig {
            hub: ChannelHub::new(Arc::clone(&sheet)),
            host: Host::start(Arc::clone(&sheet)).unwrap(),
            sheet,
        }
    }

    fn add(&self, frac: f64, seed: Option<Addr>) -> Addr {
        let ep = self.hub.open_with_queue(self.host.mailbox());
        let addr = ep.local_addr();
        let spec = NodeSpec::replicated(2).at(Key::from_fraction(frac), seed);
        self.host.add(spec, ep);
        addr
    }

    fn client(&self) -> WireClient<ChannelTransport> {
        WireClient::new(self.hub.open(), Arc::clone(&self.sheet))
    }
}

#[test]
fn crash_drops_the_node_without_a_shutdown_round_trip() {
    let rig = Rig::new();
    let a = rig.add(0.25, None);
    let b = rig.add(0.75, Some(a));
    let client = rig.client();
    assert!(matches!(
        client.call(b, Request::Status, T),
        Ok(Response::Status(_))
    ));
    rig.host.crash(b);
    // No settling: the address fails fast the moment crash returns.
    let probe = rig.hub.open();
    let msg = WireMsg::Request {
        req_id: 1,
        from: probe.local_addr(),
        body: Request::Status,
    };
    assert_eq!(probe.send(b, &msg), Err(TransportError::PeerUnreachable(b)));
    // The victim never saw a shutdown request; the survivor did not
    // stop with it.
    assert_eq!(rig.host.counts().0, 1);
    let dump = match client.call(a, Request::MetricsDump, T) {
        Ok(Response::Metrics(m)) => m.to_registry().unwrap(),
        other => panic!("no dump from the survivor: {other:?}"),
    };
    assert_eq!(dump.counter("node.msgs_in.shutdown"), 0);
    assert!(!rig.host.finished());
}

#[test]
fn a_node_reports_the_transport_sheet_only_while_it_has_it_to_itself() {
    let rig = Rig::new();
    let a = rig.add(0.25, None);
    let client = rig.client();
    let net_msgs = |node: Addr| match client.call(node, Request::MetricsDump, T) {
        Ok(Response::Metrics(m)) => m.to_registry().unwrap().counter("net.msgs"),
        other => panic!("no dump from {node}: {other:?}"),
    };
    // Warm the shared sheet, then read it back through the node.
    let _ = client.call(a, Request::Status, T);
    assert!(net_msgs(a) > 0, "a host of one folds net.* into its dump");
    let b = rig.add(0.75, Some(a));
    assert_eq!(net_msgs(a), 0, "two nodes would each report the total");
    assert_eq!(net_msgs(b), 0);
    rig.host.crash(b);
    assert!(net_msgs(a) > 0, "alone again");
}

#[test]
fn the_host_is_done_when_its_last_node_stops() {
    let rig = Rig::new();
    let a = rig.add(0.25, None);
    let b = rig.add(0.75, Some(a));
    let client = rig.client();
    for node in [b, a] {
        assert!(!rig.host.finished());
        assert!(matches!(
            client.call(node, Request::Shutdown, T),
            Ok(Response::ShutdownAck)
        ));
    }
    rig.host.join();
    assert_eq!(rig.host.counts(), (0, 0));
}
