//! `walk_tcp`: the paper's §4 walkthrough over two TCP nodes on
//! loopback. Time goes to runtime wake-ups, the TCP reactor, KQML text
//! and one inter-broker hop; matching is a cache hit on tiny
//! repositories.
//!
//! ```text
//! node A                              node B
//!   broker-1                            broker-2 (holds every C1 ad,
//!   mrq-agent                                     the C3 subscription)
//!   ra-c2a (C2a extent)                 ra-c2b (C2b extent)
//!   client, user, watcher
//! ```

use crate::community::{
    names, resource_spec, window_ad, window_query, SqlInputs, Watcher, PAPER, SQL, T,
};
use crate::layers::LayerInputs;
use crate::util::{ms, Kind, Recorder, Rng};
use crate::{Workload, World};
use infosleuth_core::agent::{
    AgentRuntime, Endpoint, RuntimeConfig, TcpTransport, Transport, TransportExt,
};
use infosleuth_core::broker::{
    advertise_to, interconnect, query_broker, subscribe_to, BrokerAgent, BrokerConfig,
    BrokerHandle, Repository,
};
use infosleuth_core::ontology::{
    paper_class_ontology, Advertisement, AgentType, Ontology, ServiceQuery,
};
use infosleuth_core::{
    spawn_mrq_agent_on, spawn_resource_agent_on, MrqAgentHandle, MrqSpec, ResourceAgentHandle,
    UserAgent,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct WalkTcp {
    ontology: Arc<Ontology>,
    /// The C1 advertisements broker-2 holds; broker-1 holds none.
    c1_ads: Vec<Advertisement>,
    sql: SqlInputs,
    churn_seed: u64,
}

impl WalkTcp {
    pub fn generate(seed: u64) -> WalkTcp {
        let mut rng = Rng::new(seed);
        let ontology = Arc::new(paper_class_ontology());
        let c1_ads = (0..rng.range(3, 6))
            .map(|i| {
                let lo = rng.range(0, 900);
                window_ad(&format!("ra-c1-{i}"), PAPER, "C1", lo, lo + 50)
            })
            .collect();
        let sql = SqlInputs::generate(&mut rng, &ontology);
        WalkTcp { ontology, c1_ads, sql, churn_seed: rng.next_u64() }
    }

    fn churn(&self) -> ChurnAgent {
        ChurnAgent::generate(&mut Rng::new(self.churn_seed))
    }

    fn c1_query() -> ServiceQuery {
        ServiceQuery::for_agent_type(AgentType::Resource).with_ontology(PAPER).with_classes(["C1"])
    }
}

fn repo(ontology: &Ontology, ads: &[Advertisement]) -> Repository {
    let mut r = Repository::new();
    r.register_ontology(ontology.clone());
    for ad in ads {
        r.advertise(ad.clone()).expect("generated ads are admissible");
    }
    r
}

struct Running {
    node_a: Arc<TcpTransport>,
    node_b: Arc<TcpTransport>,
    runtime_a: AgentRuntime,
    runtime_b: AgentRuntime,
    b1: BrokerHandle,
    b2: BrokerHandle,
    mrq: MrqAgentHandle,
    ra_a: ResourceAgentHandle,
    ra_b: ResourceAgentHandle,
    client: Endpoint,
    user: UserAgent,
    watcher: Watcher,
    churn: ChurnAgent,
    c1_query: ServiceQuery,
    c1_names: Vec<String>,
    sql: SqlInputs,
}

impl Workload for WalkTcp {
    fn setup(&self) -> Result<Box<dyn World>, String> {
        let node_a = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let node_b = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        for name in ["broker-2", "ra-c2b"] {
            node_a.add_route(name, node_b.address());
        }
        for name in ["broker-1", "mrq-agent", "ra-c2a", "client", "user", "watcher"] {
            node_b.add_route(name, node_a.address());
        }
        let transport_a: Arc<dyn Transport> = Arc::clone(&node_a) as Arc<dyn Transport>;
        let transport_b: Arc<dyn Transport> = Arc::clone(&node_b) as Arc<dyn Transport>;
        let runtime_a =
            AgentRuntime::new(Arc::clone(&transport_a), RuntimeConfig::default().with_workers(4));
        let runtime_b =
            AgentRuntime::new(Arc::clone(&transport_b), RuntimeConfig::default().with_workers(4));
        let config = |name: &str| {
            BrokerConfig::new(name, format!("tcp://{name}.mcc.com:5000")).with_ping_interval(None)
        };
        let e = |e: infosleuth_core::agent::TransportError| e.to_string();
        let b1 = BrokerAgent::spawn_on(&runtime_a, config("broker-1"), repo(&self.ontology, &[]))
            .map_err(e)?;
        let b2 = BrokerAgent::spawn_on(
            &runtime_b,
            config("broker-2"),
            repo(&self.ontology, &self.c1_ads),
        )
        .map_err(e)?;
        interconnect(&[&b1, &b2]).map_err(e)?;
        let mrq = spawn_mrq_agent_on(
            &runtime_a,
            MrqSpec {
                name: "mrq-agent".into(),
                address: "tcp://mrq.mcc.com:6000".into(),
                brokers: vec!["broker-1".into()],
                ontologies: vec![Arc::clone(&self.ontology)],
                timeout: T,
            },
        )
        .map_err(e)?;
        let ra_a = spawn_resource_agent_on(
            &runtime_a,
            resource_spec("ra-c2a", self.sql.c2a.clone(), &self.ontology),
            &["broker-1".to_string()],
            T,
        )
        .map_err(e)?;
        let ra_b = spawn_resource_agent_on(
            &runtime_b,
            resource_spec("ra-c2b", self.sql.c2b.clone(), &self.ontology),
            &["broker-2".to_string()],
            T,
        )
        .map_err(e)?;
        let mut client = transport_a.endpoint("client").map_err(e)?;
        let mut watcher = Watcher::spawn(transport_a.endpoint("watcher").map_err(e)?);
        let churn = self.churn();
        churn.setup(&mut client, &mut watcher)?;
        // Broker-1 routes by broker-2's capability digest; wait until the
        // digest it holds is broker-2's current one.
        let deadline = Instant::now() + T;
        while b1.peer_digest_epoch("broker-2") != Some(b2.with_repository(|r| r.epoch())) {
            if Instant::now() > deadline {
                return Err("broker-2's digest never reached broker-1".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let user =
            UserAgent::connect_over(transport_a, "user", vec!["broker-1".into()], T).map_err(e)?;
        let mut c1_names: Vec<String> =
            self.c1_ads.iter().map(|a| a.location.name.clone()).collect();
        c1_names.sort();
        Ok(Box::new(Running {
            node_a,
            node_b,
            runtime_a,
            runtime_b,
            b1,
            b2,
            mrq,
            ra_a,
            ra_b,
            client,
            user,
            watcher,
            churn,
            c1_query: Self::c1_query(),
            c1_names,
            sql: self.sql.clone(),
        }))
    }

    fn layer_inputs(&self) -> LayerInputs {
        let churn = self.churn();
        let mut base = self.c1_ads.clone();
        base.push(churn.ad(0, false));
        LayerInputs {
            ontologies: vec![(*self.ontology).clone()],
            base_ads: base,
            churn_ads: churn.all_ads(),
            queries: vec![Self::c1_query(), ChurnAgent::subscription()],
            subscriptions: vec![ChurnAgent::subscription()],
            sql: self.sql.clone(),
        }
    }

    fn warm_rounds(&self) -> usize {
        20
    }

    /// A set-up takes about 20 ms, most of it dispatcher waits that vary
    /// by a poll period; many of them keep the median steady.
    fn setups(&self) -> usize {
        31
    }
}

impl World for Running {
    fn round(&mut self, rec: &mut Recorder) {
        let start = rec.start();
        let answer = query_broker(&mut self.client, "broker-1", &self.c1_query, None, T);
        let end = Instant::now();
        let outcome = match answer {
            Ok(m) if names(&m) == self.c1_names => Ok(()),
            Ok(m) => Err(format!("hop query answered {:?}", names(&m))),
            Err(e) => Err(e.to_string()),
        };
        rec.op(Kind::Query, start, end, outcome);

        let start = rec.start();
        let answer = self.user.submit_sql(SQL, Some(PAPER));
        let end = Instant::now();
        let outcome = answer.map_err(|e| e.to_string()).and_then(|t| self.sql.check(&t));
        rec.op(Kind::Sql, start, end, outcome);

        self.churn.cycle(&mut self.client, &mut self.watcher, rec);
    }

    fn finish(&mut self, rec: &mut Recorder) {
        self.churn.finish(&self.client, &mut self.watcher, rec);
    }

    fn cache_stats(&self) -> (u64, u64) {
        [&self.b1, &self.b2].iter().fold((0, 0), |(h, l), b| {
            let s = b.match_cache_stats();
            (h + s.hits, l + s.hits + s.misses)
        })
    }

    fn forwards(&self) -> u64 {
        self.b1.routing_stats().forwards + self.b2.routing_stats().forwards
    }

    fn shutdown(self: Box<Self>) {
        let r = *self;
        r.watcher.stop();
        r.client.unregister();
        drop(r.user);
        r.mrq.stop();
        r.ra_a.stop();
        r.ra_b.stop();
        r.b1.stop();
        r.b2.stop();
        r.runtime_a.shutdown();
        r.runtime_b.shutdown();
        r.node_a.shutdown();
        r.node_b.shutdown();
    }
}

/// The churn agent: re-advertised at broker-2, alternately into and out
/// of a standing subscription's window on `C3.a`, so each
/// re-advertisement yields exactly one join or one leave.
struct ChurnAgent {
    /// `(lo_in, lo_out)` per cycle, drawn from the seed.
    windows: Vec<(i64, i64)>,
    cycle: usize,
}

const CHURN_AGENT: &str = "ra-churn";
const CHURN_BROKER: &str = "broker-2";
/// The standing subscription's window on `C3.a`.
const SUB_WINDOW: (i64, i64) = (100, 200);
const CHURN_WIDTH: i64 = 20;

impl ChurnAgent {
    fn generate(rng: &mut Rng) -> ChurnAgent {
        let windows = (0..256).map(|_| (rng.range(110, 170), rng.range(300, 900))).collect();
        ChurnAgent { windows, cycle: 0 }
    }

    fn subscription() -> ServiceQuery {
        window_query(PAPER, "C3", SUB_WINDOW.0, SUB_WINDOW.1)
    }

    /// The agent's advertisement in or out of the window for `cycle`.
    fn ad(&self, cycle: usize, inside: bool) -> Advertisement {
        let (lo_in, lo_out) = self.windows[cycle % self.windows.len()];
        let lo = if inside { lo_in } else { lo_out };
        window_ad(CHURN_AGENT, PAPER, "C3", lo, lo + CHURN_WIDTH)
    }

    /// Every re-advertisement of the agent the benchmark replays.
    fn all_ads(&self) -> Vec<Advertisement> {
        (0..self.windows.len()).flat_map(|c| [self.ad(c, true), self.ad(c, false)]).collect()
    }

    /// Subscribes the watcher and places the agent outside the window.
    fn setup(&self, client: &mut Endpoint, watcher: &mut Watcher) -> Result<String, String> {
        let key = subscribe_to(client, CHURN_BROKER, &Self::subscription(), "watcher", T)
            .map_err(|e| e.to_string())?
            .ok_or("subscription declined")?;
        let snap = watcher.next_delta(T).ok_or("no subscription snapshot")?;
        if snap.key != key || !snap.matched.is_empty() {
            return Err(format!("unexpected snapshot {snap:?}"));
        }
        match advertise_to(client, CHURN_BROKER, &self.ad(0, false), T) {
            Ok(true) => Ok(key),
            other => Err(format!("churn agent not admitted: {other:?}")),
        }
    }

    /// Two operations: move the agent into the window, then out of it.
    /// Each is timed to the broker's ack; its notification delay runs to
    /// the watcher's receipt of the join or leave it must cause.
    fn cycle(&mut self, client: &mut Endpoint, watcher: &mut Watcher, rec: &mut Recorder) {
        for inside in [true, false] {
            let ad = self.ad(self.cycle, inside);
            let start = rec.start();
            let acked = advertise_to(client, CHURN_BROKER, &ad, T);
            let end = Instant::now();
            let outcome = match acked {
                Ok(true) => match watcher.next_delta(T) {
                    Some(d) => {
                        let want: &[String] = &[CHURN_AGENT.to_string()];
                        let ok = if inside {
                            d.matched == want && d.unmatched.is_empty()
                        } else {
                            d.matched.is_empty() && d.unmatched == want
                        };
                        if ok {
                            rec.notify.push(ms(d.at - start));
                            Ok(())
                        } else {
                            Err(format!(
                                "expected one {} of {CHURN_AGENT}, got {d:?}",
                                join(inside)
                            ))
                        }
                    }
                    None => Err("no notification".into()),
                },
                Ok(false) => Err("re-advertisement declined".into()),
                Err(e) => Err(e.to_string()),
            };
            rec.op(Kind::Advertise, start, end, outcome);
        }
        self.cycle += 1;
    }

    /// After the last cycle: no notification may be left over.
    fn finish(&self, client: &Endpoint, watcher: &mut Watcher, rec: &mut Recorder) {
        match watcher.sync(client) {
            Ok(extra) if extra.is_empty() => {}
            Ok(extra) => {
                rec.violation(format!("{} unexpected notifications: {extra:?}", extra.len()))
            }
            Err(e) => rec.violation(e),
        }
    }
}

fn join(inside: bool) -> &'static str {
    if inside {
        "join"
    } else {
        "leave"
    }
}
