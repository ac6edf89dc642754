//! The traced run's layer replays: each workload's generated inputs are
//! fed through the public functions of one layer at a time, every call
//! timed as a span under a root span for its layer.

use crate::community::{SqlInputs, SQL};
use crate::trace::Tracer;
use infosleuth_core::agent::{
    AgentBehavior, AgentContext, AgentRuntime, Bus, Endpoint, Envelope, RuntimeConfig,
    TcpTransport, Transport, TransportExt,
};
use infosleuth_core::broker::{
    codec, DigestBuilder, MatchCache, Matchmaker, Repository, SubscriptionIndex,
};
use infosleuth_core::kqml::{Message, Performative, SExpr};
use infosleuth_core::ontology::{Advertisement, Ontology, ServiceQuery};
use infosleuth_core::relquery::{execute, parse_select, plan};
use infosleuth_core::tablecodec::{table_from_sexpr, table_to_sexpr};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a workload feeds its brokers, for replay outside the community.
pub struct LayerInputs {
    pub ontologies: Vec<Ontology>,
    /// The repository content at the start of the run.
    pub base_ads: Vec<Advertisement>,
    /// Re-advertisements in the order the run makes them; each replaces
    /// the advertisement of the same agent.
    pub churn_ads: Vec<Advertisement>,
    /// Service queries the run issues.
    pub queries: Vec<ServiceQuery>,
    /// Standing subscriptions the run registers.
    pub subscriptions: Vec<ServiceQuery>,
    pub sql: SqlInputs,
}

/// Calls per replayed layer: at least this many (and at least one per
/// input), then more until the time budget or the cap is reached.
const MIN_CALLS: usize = 200;
const MAX_CALLS: usize = 20_000;
const LAYER_BUDGET: Duration = Duration::from_millis(400);

fn more(start: Instant, calls: usize, inputs: usize) -> bool {
    calls < MIN_CALLS.max(inputs) || (calls < MAX_CALLS && start.elapsed() < LAYER_BUDGET)
}

/// Replays the broker, analysis, codec, KQML, relquery and table-codec
/// layers on `inputs`. Returns the mean number of subscriptions the index
/// proposes per re-advertisement.
pub fn replay(inputs: &LayerInputs, tr: &mut Tracer) -> f64 {
    let mut repo = Repository::new();
    for o in &inputs.ontologies {
        repo.register_ontology(o.clone());
    }
    for ad in &inputs.base_ads {
        repo.advertise(ad.clone()).expect("generated ads are admissible");
    }
    let mm = Matchmaker::default();
    let model = repo.saturated();

    // Matching on a miss: the full narrowing + scoring + ranking path.
    let root = tr.open("replay.match");
    let (start, mut calls) = (Instant::now(), 0);
    while more(start, calls, inputs.queries.len()) {
        let q = &inputs.queries[calls % inputs.queries.len()];
        black_box(tr.time("match.miss", root, || mm.match_query(&repo, &model, q)));
        calls += 1;
    }
    // Matching on a hit: the same key again at the same epoch.
    let cache = MatchCache::new(16);
    let q0 = &inputs.queries[0];
    black_box(mm.match_query_cached(&mut repo, &cache, q0));
    for _ in 0..MIN_CALLS {
        black_box(tr.time("match.hit", root, || mm.match_query_cached(&mut repo, &cache, q0)));
    }
    tr.close(root);

    // Messages the run exchanges: query requests and their replies,
    // advertisements, the SQL request and its table reply.
    let replies: Vec<SExpr> = inputs
        .queries
        .iter()
        .map(|q| codec::matches_to_sexpr(&mm.match_query(&repo, &model, q)))
        .collect();
    let stmt = parse_select(SQL).expect("benchmark SQL parses");
    let logical = plan(&stmt);
    let catalog = inputs.sql.assembled_catalog();
    let answer = execute(&logical, &catalog).expect("benchmark SQL executes");
    let table_sexpr = table_to_sexpr(&answer);
    let mut messages: Vec<Message> = Vec::new();
    for (q, r) in inputs.queries.iter().zip(&replies) {
        messages.push(
            Message::new(Performative::AskAll)
                .with_ontology("infosleuth-service")
                .with_content(codec::service_query_to_sexpr(q)),
        );
        messages.push(Message::new(Performative::Reply).with_content(r.clone()));
    }
    for ad in inputs.churn_ads.iter().take(8) {
        messages.push(
            Message::new(Performative::Advertise)
                .with_ontology("infosleuth-service")
                .with_content(codec::advertisement_to_sexpr(ad)),
        );
    }
    messages.push(
        Message::new(Performative::AskAll)
            .with_language("SQL 2.0")
            .with_ontology("paper-classes")
            .with_content(SExpr::string(SQL)),
    );
    messages.push(Message::new(Performative::Reply).with_content(table_sexpr.clone()));
    let texts: Vec<String> = messages.iter().map(|m| m.to_string()).collect();

    let root = tr.open("replay.kqml");
    let (start, mut calls) = (Instant::now(), 0);
    while more(start, calls, messages.len()) {
        let i = calls % messages.len();
        black_box(tr.time("kqml.render", root, || messages[i].to_string()));
        black_box(tr.time("kqml.parse", root, || Message::parse(&texts[i]).expect("parses")));
        calls += 1;
    }
    tr.close(root);

    let root = tr.open("replay.codec");
    let (start, mut calls) = (Instant::now(), 0);
    while more(start, calls, replies.len()) {
        let r = &replies[calls % replies.len()];
        let _ = black_box(tr.time("codec.matches_decode", root, || codec::matches_from_sexpr(r)));
        calls += 1;
    }
    tr.close(root);

    let root = tr.open("replay.relquery");
    for _ in 0..MIN_CALLS {
        let _ = black_box(tr.time("relquery.exec", root, || execute(&logical, &catalog)));
        let _ = black_box(tr.time("tablecodec.decode", root, || table_from_sexpr(&table_sexpr)));
    }
    tr.close(root);

    // The write path, in the run's order: admission analysis, the
    // subscription index's candidate set, the repository update, the
    // saturated model the next match reads, and the digest peers get.
    let mut subs = SubscriptionIndex::new();
    for (i, q) in inputs.subscriptions.iter().enumerate() {
        subs.insert(i as u64 + 1, q, &repo);
    }
    let mut digest = DigestBuilder::from_repo(&repo);
    let root = tr.open("replay.write");
    let (start, mut calls, mut affected) = (Instant::now(), 0, 0usize);
    while more(start, calls, inputs.churn_ads.len()) {
        let ad = &inputs.churn_ads[calls % inputs.churn_ads.len()];
        black_box(tr.time("analysis.admit", root, || repo.analyze(ad)));
        let old = repo.advertisement(&ad.location.name).cloned();
        let hit = tr.time("sub.affected", root, || subs.affected_by_change(old.as_ref(), Some(ad)));
        affected += hit.len();
        tr.time("repo.advertise", root, || repo.advertise(ad.clone())).expect("admissible");
        black_box(tr.time("repo.saturate", root, || repo.saturated()));
        black_box(tr.time("digest.build", root, || {
            digest.advertise(ad, &repo);
            digest.snapshot("bench-broker", &repo, true)
        }));
        calls += 1;
    }
    tr.close(root);
    affected as f64 / calls as f64
}

fn ping() -> Message {
    Message::new(Performative::AskOne).with_content(SExpr::atom("ping"))
}

/// Answers every request on `ep` until `stop` is set.
fn echo_thread(mut ep: Endpoint, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if let Some(env) = ep.recv_timeout(Duration::from_millis(20)) {
                let _ = ep.send(&env.from, env.message.reply_skeleton(Performative::Reply));
            }
        }
        ep.unregister();
    })
}

/// `rounds` request/reply round trips from `client` to `to`, as spans.
fn round_trips(
    tr: &mut Tracer,
    name: &'static str,
    client: &mut Endpoint,
    to: &str,
    rounds: usize,
) {
    let root = tr.open("replay.transport");
    for _ in 0..rounds {
        tr.time(name, root, || client.request(to, ping(), Duration::from_secs(5)))
            .expect("echo answers");
    }
    tr.close(root);
}

struct Echo;

impl AgentBehavior for Echo {
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        let _ = ctx.send(&env.from, env.message.reply_skeleton(Performative::Reply));
    }
}

/// Bare transport and runtime round trips: a Bus endpoint echo, a
/// two-node TCP echo without a runtime, and an echo agent hosted on an
/// [`AgentRuntime`] over the Bus.
pub fn transports(tr: &mut Tracer) {
    let stop = Arc::new(AtomicBool::new(false));

    let bus = Bus::new();
    let echo = echo_thread(bus.register("echo").expect("fresh bus"), Arc::clone(&stop));
    let mut client = bus.register("client").expect("fresh bus");
    round_trips(tr, "bus.rtt", &mut client, "echo", 2000);

    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
    let agent = runtime.spawn("echo-agent", Arc::new(Echo)).expect("fresh name");
    round_trips(tr, "runtime.rtt", &mut client, "echo-agent", 500);
    agent.stop();
    runtime.shutdown();

    let node_a = TcpTransport::bind("127.0.0.1:0").expect("loopback binds");
    let node_b = TcpTransport::bind("127.0.0.1:0").expect("loopback binds");
    node_a.add_route("tcp-echo", node_b.address());
    node_b.add_route("tcp-client", node_a.address());
    let tb: Arc<dyn Transport> = Arc::clone(&node_b) as Arc<dyn Transport>;
    let ta: Arc<dyn Transport> = Arc::clone(&node_a) as Arc<dyn Transport>;
    let tcp_echo = echo_thread(tb.endpoint("tcp-echo").expect("fresh name"), Arc::clone(&stop));
    let mut tcp_client = ta.endpoint("tcp-client").expect("fresh name");
    round_trips(tr, "tcp.rtt", &mut tcp_client, "tcp-echo", 500);

    stop.store(true, Ordering::Relaxed);
    let _ = echo.join();
    let _ = tcp_echo.join();
    client.unregister();
    tcp_client.unregister();
    node_a.shutdown();
    node_b.shutdown();
}
