//! Community pieces both workloads share: the SQL tables and their
//! resource agents, windowed advertisements and queries, and the watcher
//! thread that timestamps notifications.

use crate::util::Rng;
use infosleuth_core::agent::Endpoint;
use infosleuth_core::broker::codec;
use infosleuth_core::constraint::{Conjunction, Predicate, Value};
use infosleuth_core::kqml::{Message, Performative, SExpr};
use infosleuth_core::ontology::{
    Advertisement, AgentLocation, AgentType, ConversationType, Ontology, OntologyContent,
    SemanticInfo, ServiceQuery, SyntacticInfo,
};
use infosleuth_core::relquery::{generate_table, Catalog, GenSpec, Table};
use infosleuth_core::{ResourceDef, ResourceSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request timeout for every conversation the benchmark starts.
pub const T: Duration = Duration::from_secs(10);
pub const PAPER: &str = "paper-classes";
pub const SQL: &str = "select * from C2";
/// The `C2b` extent's ids start here, so the two extents never share a key.
const C2B_ID_BASE: i64 = 1000;

/// The generated `C2a` and `C2b` extents: `select * from C2` must return
/// their union, keyed by `id`.
#[derive(Clone)]
pub struct SqlInputs {
    pub c2a: Table,
    pub c2b: Table,
}

impl SqlInputs {
    pub fn generate(rng: &mut Rng, ontology: &Ontology) -> SqlInputs {
        let rows_a = rng.range(8, 16) as usize;
        let rows_b = rng.range(8, 16) as usize;
        let c2a = generate_table(ontology, &GenSpec::new("C2a", rows_a, rng.next_u64()))
            .expect("C2a generates");
        let raw_b = generate_table(ontology, &GenSpec::new("C2b", rows_b, rng.next_u64()))
            .expect("C2b generates");
        let id = raw_b.column_index("id").expect("id column");
        let mut c2b = Table::new("C2b", raw_b.columns().to_vec());
        for row in raw_b.rows() {
            let mut row = row.clone();
            if let Value::Int(i) = row[id] {
                row[id] = Value::Int(i + C2B_ID_BASE);
            }
            c2b.push_row(row).expect("same columns");
        }
        SqlInputs { c2a, c2b }
    }

    /// The union of both extents as `id -> (column -> value)`.
    fn expected(&self) -> BTreeMap<i64, BTreeMap<String, Value>> {
        let mut out = BTreeMap::new();
        for t in [&self.c2a, &self.c2b] {
            out.extend(keyed(t).expect("generated tables are keyed"));
        }
        out
    }

    /// Checks an answer against the union of the generated extents.
    pub fn check(&self, answer: &Table) -> Result<(), String> {
        let got = keyed(answer)?;
        let want = self.expected();
        if got.len() != answer.len() {
            return Err(format!("duplicate ids in {} rows", answer.len()));
        }
        if let Some((id, row)) = want.iter().find(|(id, row)| got.get(id) != Some(row)) {
            return Err(format!("id {id}: answered {:?}, generated {row:?}", got.get(id)));
        }
        if got.len() != want.len() {
            return Err(format!("{} rows answered, {} generated", got.len(), want.len()));
        }
        Ok(())
    }

    /// The catalog the MRQ agent assembles for `C2` before it executes
    /// the user's plan (one `C2` table holding both extents).
    pub fn assembled_catalog(&self) -> Catalog {
        let mut c2 = Table::new("C2", self.c2a.columns().to_vec());
        for row in self.c2a.rows().iter().chain(self.c2b.rows()) {
            c2.push_row(row.clone()).expect("same columns");
        }
        let mut catalog = Catalog::new();
        catalog.insert(c2);
        catalog
    }
}

fn keyed(t: &Table) -> Result<BTreeMap<i64, BTreeMap<String, Value>>, String> {
    let id = t.column_index("id").ok_or("answer has no id column")?;
    let mut out = BTreeMap::new();
    for row in t.rows() {
        let Value::Int(key) = row[id] else { return Err("non-integer id".into()) };
        // Answers qualify columns with the class (`C2.a`); compare bare.
        let bare = |c: &str| c.rsplit('.').next().unwrap_or(c).to_string();
        let cols = t.columns().iter().zip(row).map(|(c, v)| (bare(&c.name), v.clone())).collect();
        out.insert(key, cols);
    }
    Ok(out)
}

/// A resource agent holding one table, advertised the way
/// `infosleuth_core::Community` derives advertisements.
pub fn resource_spec(name: &str, table: Table, ontology: &Arc<Ontology>) -> ResourceSpec {
    let mut catalog = Catalog::new();
    catalog.insert(table);
    let def = ResourceDef::new(name, ontology.name.clone(), catalog);
    ResourceSpec {
        advertisement: def.advertisement(ontology, 7000),
        catalog: def.catalog,
        ontology: Arc::clone(ontology),
        redundancy: 1,
        maintenance_interval: None,
        timeout: T,
    }
}

/// A resource advertisement for one class with a numeric window on
/// `<class>.a`.
pub fn window_ad(name: &str, ontology: &str, class: &str, lo: i64, hi: i64) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, "tcp://churn.mcc.com:7100", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default().with_conversations([ConversationType::AskAll]).with_content(
                OntologyContent::new(ontology).with_classes([class]).with_constraints(
                    Conjunction::from_predicates(vec![Predicate::between(
                        format!("{class}.a"),
                        lo,
                        hi,
                    )]),
                ),
            ),
        )
}

/// A query for one class restricted to a window on `<class>.a`.
pub fn window_query(ontology: &str, class: &str, lo: i64, hi: i64) -> ServiceQuery {
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology(ontology)
        .with_classes([class])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            format!("{class}.a"),
            lo,
            hi,
        )]))
}

/// Closed intervals overlap: the matcher's constraint test for two
/// `between` windows on the same slot.
pub fn overlaps(a: (i64, i64), b: (i64, i64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// One notification as the watcher received it.
#[derive(Debug, Clone)]
pub struct Delta {
    pub at: Instant,
    pub key: String,
    pub epoch: u64,
    pub matched: Vec<String>,
    pub unmatched: Vec<String>,
}

pub enum WatchEvent {
    Delta(Delta),
    Marker,
}

const MARKER: &str = "e2ebench-marker";

/// The watcher: a thread that owns the subscriptions' `reply-to`
/// endpoint, timestamps every notification on receipt, and hands it to
/// the client thread.
pub struct Watcher {
    rx: Receiver<WatchEvent>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watcher {
    pub fn spawn(mut ep: Endpoint) -> Watcher {
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                let Some(env) = ep.recv_timeout(Duration::from_millis(20)) else { continue };
                let at = Instant::now();
                let content = env.message.content();
                let event = if content.and_then(SExpr::as_text) == Some(MARKER) {
                    WatchEvent::Marker
                } else {
                    match content.map(codec::sub_delta_from_sexpr) {
                        Some(Ok((epoch, matched, unmatched))) => WatchEvent::Delta(Delta {
                            at,
                            key: env.message.in_reply_to().unwrap_or_default().to_string(),
                            epoch,
                            matched: matched.into_iter().map(|m| m.name).collect(),
                            unmatched,
                        }),
                        _ => continue,
                    }
                };
                if tx.send(event).is_err() {
                    break;
                }
            }
            ep.unregister();
        });
        Watcher { rx, stop, thread: Some(thread) }
    }

    /// The next delta, waiting up to `timeout`.
    pub fn next_delta(&mut self, timeout: Duration) -> Option<Delta> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(WatchEvent::Delta(d)) => return Some(d),
                Ok(WatchEvent::Marker) => continue,
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Every delta received so far, without waiting.
    pub fn drain(&mut self) -> Vec<Delta> {
        let mut out = Vec::new();
        while let Ok(event) = self.rx.try_recv() {
            if let WatchEvent::Delta(d) = event {
                out.push(d);
            }
        }
        out
    }

    /// Sends a marker from `client` and collects every delta the watcher
    /// received before it. Deltas a broker sent before acknowledging a
    /// mutation reach the watcher ahead of a marker sent after the ack,
    /// so this returns all notifications of the mutations made so far.
    pub fn sync(&mut self, client: &Endpoint) -> Result<Vec<Delta>, String> {
        let marker = Message::new(Performative::Tell).with_content(SExpr::atom(MARKER));
        client.send("watcher", marker).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        loop {
            match self.rx.recv_timeout(T) {
                Ok(WatchEvent::Delta(d)) => out.push(d),
                Ok(WatchEvent::Marker) => return Ok(out),
                Err(_) => return Err("watcher marker never arrived".into()),
            }
        }
    }

    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Sorted names of a broker answer.
pub fn names(matches: &[infosleuth_core::broker::MatchResult]) -> Vec<String> {
    let mut v: Vec<String> = matches.iter().map(|m| m.name.clone()).collect();
    v.sort();
    v
}
