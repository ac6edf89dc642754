//! `churn_bus`: one broker on the Bus with hundreds of advertisements
//! over a many-class ontology and thousands of standing subscriptions.
//! Each cycle re-advertises one agent with a shifted window, which
//! produces a few sub-deltas, then queries the class that update just
//! invalidated. The work is the write path: admission analysis,
//! incremental saturation, index upkeep and notification delivery.

use crate::community::{
    names, overlaps, window_ad, window_query, Delta, SqlInputs, Watcher, PAPER, SQL, T,
};
use crate::layers::LayerInputs;
use crate::util::{ms, Kind, Recorder, Rng};
use crate::{Workload, World};
use infosleuth_core::agent::{Endpoint, TransportError};
use infosleuth_core::broker::{advertise_to, codec, query_broker, BrokerConfig, BrokerHandle};
use infosleuth_core::kqml::{Message, Performative, SExpr};
use infosleuth_core::ontology::{
    paper_class_ontology, Advertisement, ClassDef, Ontology, ServiceQuery, SlotDef, ValueType,
};
use infosleuth_core::relquery::{Catalog, Table};
use infosleuth_core::{Community, ResourceDef, UserAgent};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

const ONTOLOGY: &str = "synthetic-classes";
const CLASSES: usize = 256;
/// Advertisements; agent `i` serves class `i % CLASSES`.
const ADS: usize = 512;
/// Standing subscriptions; subscription `j` watches class `j % CLASSES`.
const SUBS: usize = 2048;
/// Window starts run over `0..=WINDOW_SPAN`.
const WINDOW_SPAN: i64 = 200;
const AD_WIDTH: i64 = 60;
const SUB_WIDTH: i64 = 80;
const QUERY_WIDTH: i64 = 80;
/// Length of the generated update sequence; runs cycle through it.
const UPDATES: usize = 1024;
/// Re-advertise + query cycles per round; each round ends with one SQL
/// operation.
const CYCLES_PER_ROUND: usize = 4;

fn class(i: usize) -> String {
    format!("K{:03}", i % CLASSES)
}

fn agent(i: usize) -> String {
    format!("ra{i:03}")
}

#[derive(Clone)]
pub struct ChurnBus {
    synthetic: Ontology,
    paper: Arc<Ontology>,
    /// Window start per advertisement at the start of the run.
    ad_lo: Vec<i64>,
    /// Window start per subscription.
    sub_lo: Vec<i64>,
    /// `(agent, its new window start, the query's window start)`.
    updates: Vec<(usize, i64, i64)>,
    sql: SqlInputs,
}

impl ChurnBus {
    pub fn generate(seed: u64) -> ChurnBus {
        let mut rng = Rng::new(seed);
        let mut synthetic = Ontology::new(ONTOLOGY);
        for i in 0..CLASSES {
            synthetic
                .add_class(ClassDef::new(
                    class(i),
                    vec![SlotDef::key("id", ValueType::Int), SlotDef::new("a", ValueType::Int)],
                ))
                .expect("fresh ontology");
        }
        let ad_lo = (0..ADS).map(|_| rng.range(0, WINDOW_SPAN)).collect();
        let sub_lo = (0..SUBS).map(|_| rng.range(0, WINDOW_SPAN)).collect();
        let updates = (0..UPDATES)
            .map(|_| {
                let victim = rng.range(0, ADS as i64 - 1) as usize;
                (victim, rng.range(0, WINDOW_SPAN), rng.range(0, WINDOW_SPAN))
            })
            .collect();
        let paper = Arc::new(paper_class_ontology());
        let sql = SqlInputs::generate(&mut rng, &paper);
        ChurnBus { synthetic, paper, ad_lo, sub_lo, updates, sql }
    }

    fn ad(i: usize, lo: i64) -> Advertisement {
        window_ad(&agent(i), ONTOLOGY, &class(i), lo, lo + AD_WIDTH)
    }

    fn subscription(&self, j: usize) -> ServiceQuery {
        window_query(ONTOLOGY, &class(j), self.sub_lo[j], self.sub_lo[j] + SUB_WIDTH)
    }
}

/// What the watcher has seen of one subscription.
#[derive(Default)]
struct SubState {
    epoch: Option<u64>,
    names: BTreeSet<String>,
}

struct Running {
    community: BusCommunity,
    inputs: ChurnBus,
    /// Current window start per advertisement.
    ad_lo: Vec<i64>,
    next_update: usize,
    /// Subscription key -> subscription index.
    keys: HashMap<String, usize>,
    subs: Vec<SubState>,
    /// Repository epoch of the last re-advertisement.
    epoch: u64,
    /// Send time per re-advertisement, by the epoch it produces.
    sent: Vec<(u64, Instant)>,
    /// Latest notification receipt per epoch.
    last_notified: HashMap<u64, Instant>,
    violations: Vec<String>,
}

impl Running {
    /// Applies notifications to the subscriptions they name.
    fn absorb(&mut self, deltas: Vec<Delta>) {
        for d in deltas {
            let Some(&j) = self.keys.get(&d.key) else {
                self.violations.push(format!("notification for unknown key {}", d.key));
                continue;
            };
            let sub = &mut self.subs[j];
            if sub.epoch.is_some_and(|e| d.epoch <= e) {
                self.violations.push(format!("{}: epoch {} after {:?}", d.key, d.epoch, sub.epoch));
            }
            sub.epoch = Some(d.epoch);
            for name in &d.unmatched {
                sub.names.remove(name);
            }
            sub.names.extend(d.matched.iter().cloned());
            let last = self.last_notified.entry(d.epoch).or_insert(d.at);
            *last = (*last).max(d.at);
        }
    }

    /// Brute force over the current windows: agents of `class` whose
    /// window overlaps `window`.
    fn expected(&self, class_of: usize, window: (i64, i64)) -> BTreeSet<String> {
        (class_of % CLASSES..ADS)
            .step_by(CLASSES)
            .filter(|&i| overlaps((self.ad_lo[i], self.ad_lo[i] + AD_WIDTH), window))
            .map(agent)
            .collect()
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        let (victim, lo, query_lo) = self.inputs.updates[self.next_update % UPDATES];
        self.next_update += 1;
        let client = &mut self.community.client;
        let start = rec.start();
        let acked = advertise_to(client, BROKER, &ChurnBus::ad(victim, lo), T);
        let end = Instant::now();
        let outcome = match acked {
            Ok(true) => {
                self.ad_lo[victim] = lo;
                self.epoch += 1;
                self.sent.push((self.epoch, start));
                Ok(())
            }
            Ok(false) => Err("re-advertisement declined".into()),
            Err(e) => Err(e.to_string()),
        };
        rec.op(Kind::Advertise, start, end, outcome);

        let window = (query_lo, query_lo + QUERY_WIDTH);
        let query = window_query(ONTOLOGY, &class(victim), window.0, window.1);
        let start = rec.start();
        let answer = query_broker(client, BROKER, &query, None, T);
        let end = Instant::now();
        let outcome = match answer {
            Ok(m) => {
                let want: Vec<String> = self.expected(victim, window).into_iter().collect();
                if names(&m) == want {
                    Ok(())
                } else {
                    Err(format!("{}: got {:?}, want {want:?}", class(victim), names(&m)))
                }
            }
            Err(e) => Err(e.to_string()),
        };
        rec.op(Kind::Query, start, end, outcome);
        let deltas = self.community.watcher.drain();
        self.absorb(deltas);
    }
}

impl Workload for ChurnBus {
    fn setup(&self) -> Result<Box<dyn World>, String> {
        let mut community = BusCommunity::start(self)?;

        // Subscribe everything at once: every request is sent before the
        // first ack is read.
        let client = &mut community.client;
        for j in 0..SUBS {
            let msg = Message::new(Performative::Subscribe)
                .with_ontology("infosleuth-service")
                .with("reply-to", SExpr::atom("watcher"))
                .with("reply-with", SExpr::atom(format!("sub-req-{j}")))
                .with_content(codec::service_query_to_sexpr(&self.subscription(j)));
            client.send(BROKER, msg).map_err(|e| e.to_string())?;
        }
        let mut keys = HashMap::new();
        while keys.len() < SUBS {
            let env = client.recv_timeout(T).ok_or("subscription acks stalled")?;
            let j = env
                .message
                .in_reply_to()
                .and_then(|r| r.strip_prefix("sub-req-"))
                .and_then(|j| j.parse::<usize>().ok())
                .ok_or("ack without a request id")?;
            let key = match (&env.message.performative, env.message.content()) {
                (Performative::Tell, Some(k)) => k.as_text().unwrap_or_default().to_string(),
                _ => return Err(format!("subscription {j} declined")),
            };
            keys.insert(key, j);
        }
        let epoch = community.broker().with_repository(|r| r.epoch());
        let snapshots = community.watcher.sync(&community.client)?;
        let mut running = Running {
            community,
            inputs: self.clone(),
            ad_lo: self.ad_lo.clone(),
            next_update: 0,
            keys,
            subs: (0..SUBS).map(|_| SubState::default()).collect(),
            epoch,
            sent: Vec::new(),
            last_notified: HashMap::new(),
            violations: Vec::new(),
        };
        running.absorb(snapshots);
        if let Some(v) = running.violations.first() {
            return Err(format!("subscription snapshots: {v}"));
        }
        Ok(Box::new(running))
    }

    fn layer_inputs(&self) -> LayerInputs {
        let base = self.ad_lo.iter().enumerate().map(|(i, &lo)| ChurnBus::ad(i, lo)).collect();
        let churn_ads = self.updates.iter().map(|&(v, lo, _)| ChurnBus::ad(v, lo)).collect();
        let queries = self
            .updates
            .iter()
            .map(|&(v, _, q)| window_query(ONTOLOGY, &class(v), q, q + QUERY_WIDTH))
            .collect();
        LayerInputs {
            ontologies: vec![self.synthetic.clone(), (*self.paper).clone()],
            base_ads: base,
            churn_ads,
            queries,
            subscriptions: (0..SUBS).map(|j| self.subscription(j)).collect(),
            sql: self.sql.clone(),
        }
    }

    fn warm_rounds(&self) -> usize {
        20
    }

    /// A set-up takes about 1 s of CPU-bound loading and subscribing.
    fn setups(&self) -> usize {
        9
    }
}

impl World for Running {
    fn round(&mut self, rec: &mut Recorder) {
        for _ in 0..CYCLES_PER_ROUND {
            self.cycle(rec);
        }
        self.community.sql_op(&self.inputs.sql, rec);
    }

    fn begin_measurement(&mut self) {
        self.sent.clear();
    }

    fn finish(&mut self, rec: &mut Recorder) {
        match self.community.watcher.sync(&self.community.client) {
            Ok(deltas) => self.absorb(deltas),
            Err(e) => self.violations.push(e),
        }
        // Notification delay: from sending a re-advertisement to the
        // receipt of the last delta it caused (updates that changed no
        // subscription's result set notify nobody).
        for (epoch, sent) in std::mem::take(&mut self.sent) {
            if let Some(at) = self.last_notified.get(&epoch) {
                rec.notify.push(ms(*at - sent));
            }
        }
        for j in 0..SUBS {
            let lo = self.inputs.sub_lo[j];
            let want = self.expected(j, (lo, lo + SUB_WIDTH));
            if self.subs[j].names != want {
                self.violations.push(format!(
                    "subscription {j}: notified state {:?} != brute force {want:?}",
                    self.subs[j].names
                ));
            }
        }
        for v in self.violations.drain(..) {
            rec.violation(v);
        }
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.community.cache_stats()
    }

    fn forwards(&self) -> u64 {
        self.community.broker().routing_stats().forwards
    }

    fn shutdown(self: Box<Self>) {
        self.community.shutdown();
    }
}

/// The single-broker community as `Community::builder` composes it
/// (broker, monitor, ontology and MRQ agents and the two `C2` resource
/// agents on one runtime), plus the client, user and watcher endpoints.
struct BusCommunity {
    community: Community,
    client: Endpoint,
    user: UserAgent,
    watcher: Watcher,
}

const BROKER: &str = "broker";

impl BusCommunity {
    fn start(inputs: &ChurnBus) -> Result<BusCommunity, String> {
        let e = |e: TransportError| e.to_string();
        let resource = |name: &str, table: &Table| {
            let mut catalog = Catalog::new();
            catalog.insert(table.clone());
            ResourceDef::new(name, PAPER, catalog)
        };
        let community = Community::builder()
            .with_ontology(inputs.synthetic.clone())
            .with_ontology((*inputs.paper).clone())
            // The generated agents are not running, so liveness pings
            // would unadvertise them.
            .add_broker_with(
                BrokerConfig::new(BROKER, "tcp://broker.mcc.com:5000").with_ping_interval(None),
            )
            .add_resource(resource("ra-c2a", &inputs.sql.c2a))
            .add_resource(resource("ra-c2b", &inputs.sql.c2b))
            .with_timeout(T)
            .build()
            .map_err(e)?;
        community.brokers()[0].with_repository(|repo| {
            for (i, &lo) in inputs.ad_lo.iter().enumerate() {
                repo.advertise(ChurnBus::ad(i, lo)).map_err(|e| e.to_string())?;
            }
            repo.saturated();
            Ok::<(), String>(())
        })?;
        let client = community.bus().register("client").map_err(e)?;
        let watcher = Watcher::spawn(community.bus().register("watcher").map_err(e)?);
        let user = community.user("user").map_err(e)?;
        Ok(BusCommunity { community, client, user, watcher })
    }

    fn broker(&self) -> &BrokerHandle {
        &self.community.brokers()[0]
    }

    /// One SQL operation, checked against the generated extents.
    fn sql_op(&mut self, sql: &SqlInputs, rec: &mut Recorder) {
        let start = rec.start();
        let answer = self.user.submit_sql(SQL, Some(PAPER));
        let end = Instant::now();
        rec.op(
            Kind::Sql,
            start,
            end,
            answer.map_err(|e| e.to_string()).and_then(|t| sql.check(&t)),
        );
    }

    fn cache_stats(&self) -> (u64, u64) {
        let s = self.broker().match_cache_stats();
        (s.hits, s.hits + s.misses)
    }

    fn shutdown(self) {
        self.watcher.stop();
        self.client.unregister();
        drop(self.user);
        self.community.shutdown();
    }
}
