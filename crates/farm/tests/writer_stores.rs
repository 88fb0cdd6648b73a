//! Every writer applies an update as exactly the stores
//! [`update_chunks`] describes: the lock (for layouts that take one), the
//! chunks in order, one per wake, then the publish word. Checked for the
//! local [`Writer`], the FaRM [`RpcWriteServer`] and the replica-site
//! [`RecoveringWriter`] under every [`WriterLayout`], by snapshotting the
//! store region after each hook the writer runs.

use std::sync::{Arc, Mutex};

use sabre_farm::{
    KvStore, ObjectStore, RecoveringWriter, RpcWriteServer, RpcWriter, StoreLayout, WriteLog,
};
use sabre_mem::Addr;
use sabre_rack::workloads::{update_chunks, Writer, WriterLayout};
use sabre_rack::{Cluster, ClusterConfig, CoreApi, Workload};
use sabre_sim::Time;
use sabre_sonuma::CqEntry;
use sabre_sw::VersionWord;

const PAYLOAD: u32 = 300;
const STORE_NODE: usize = 1;
/// The store region's fill before the run. No checked store consists of
/// this byte alone, so each store changes the region unless it rewrites
/// bytes an earlier store of the update put there.
const POISON: u8 = 0xA5;

const LAYOUTS: [(StoreLayout, WriterLayout); 4] = [
    (StoreLayout::Clean, WriterLayout::Clean),
    (StoreLayout::PerCl, WriterLayout::PerCl),
    (StoreLayout::Checksum, WriterLayout::Checksum),
    (StoreLayout::WfRegister, WriterLayout::WfRegister),
];

/// Wraps a workload and records the watched region after each hook.
struct Watch {
    inner: Box<dyn Workload>,
    base: Addr,
    len: usize,
    snaps: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Watch {
    fn snap(&self, api: &CoreApi<'_>) {
        let image = api.read_local(self.base, self.len);
        self.snaps.lock().expect("snapshot log").push(image);
    }
}

impl Workload for Watch {
    fn on_start(&mut self, api: &mut CoreApi<'_>) {
        self.inner.on_start(api);
        self.snap(api);
    }

    fn on_wake(&mut self, api: &mut CoreApi<'_>) {
        self.inner.on_wake(api);
        self.snap(api);
    }

    fn on_completion(&mut self, api: &mut CoreApi<'_>, cq: CqEntry) {
        self.inner.on_completion(api, cq);
        self.snap(api);
    }

    fn on_rpc(&mut self, api: &mut CoreApi<'_>, src_node: u8, src_core: u8, tag: u64, bytes: u32) {
        self.inner.on_rpc(api, src_node, src_core, tag, bytes);
        self.snap(api);
    }

    fn on_rpc_reply(&mut self, api: &mut CoreApi<'_>, tag: u64, bytes: u32) {
        self.inner.on_rpc_reply(api, tag, bytes);
        self.snap(api);
    }
}

/// A rack whose store node holds a two-object store, poisoned except
/// for each object's version word (0), plus the writer under test on
/// the store node, wrapped in a [`Watch`] over the store region.
/// `client` optionally installs a workload on the other node. Returns
/// the region before the run and the snapshot after every hook.
fn run_watched(
    store: &ObjectStore,
    writer: Box<dyn Workload>,
    client: Option<Box<dyn Workload>>,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let layout = writer_layout(store.layout());
    let mut cluster = Cluster::new(ClusterConfig {
        memory_bytes: 4 * 1024 * 1024,
        ..ClusterConfig::default()
    });
    let len = store.region_bytes() as usize;
    let mem = cluster.node_memory_mut(STORE_NODE);
    mem.write(store.object_addr(0), &vec![POISON; len]);
    for (_, base) in store.object_entries() {
        mem.write_u64(layout.version_addr(base), 0);
    }
    let initial = mem.read_vec(store.object_addr(0), len);
    let snaps = Arc::new(Mutex::new(Vec::new()));
    let watch = Watch {
        inner: writer,
        base: store.object_addr(0),
        len,
        snaps: Arc::clone(&snaps),
    };
    cluster.add_workload(STORE_NODE, 0, Box::new(watch));
    if let Some(client) = client {
        cluster.add_workload(1 - STORE_NODE, 0, client);
    }
    cluster.run_for(Time::from_us(4));
    let snaps = snaps.lock().expect("snapshot log").clone();
    (initial, snaps)
}

fn writer_layout(layout: StoreLayout) -> WriterLayout {
    LAYOUTS
        .iter()
        .find(|&&(s, _)| s == layout)
        .expect("every store layout has a writer layout")
        .1
}

/// Checks that the first region changes the writer made are the update
/// of object `obj` at sequence `seq`, store by store, from a locked
/// version of 0: one store per hook up to the last chunk, then the
/// publish word (for per-CL, the head line already holds it).
fn assert_first_update(store: &ObjectStore, obj: u64, seq: u64, run: (Vec<u8>, Vec<Vec<u8>>)) {
    let (initial, snaps) = run;
    let layout = writer_layout(store.layout());
    let base = store.object_addr(obj);
    let region = store.object_addr(0);
    let va = layout.version_addr(base);

    let mut stores = Vec::new();
    if layout.takes_lock() {
        let locked = VersionWord::new(0).locked().raw();
        stores.push((va, locked.to_le_bytes().to_vec()));
    }
    stores.extend(update_chunks(layout, base, obj, seq, PAYLOAD as usize, 0));
    stores.push((va, layout.publish_word(0).to_le_bytes().to_vec()));

    // The region after each store, skipping a store that rewrites bytes
    // already there (the per-CL head line carries the publish word).
    let mut expected = Vec::new();
    let mut shadow = initial.clone();
    for (k, (addr, data)) in stores.iter().enumerate() {
        let off = (addr.raw() - region.raw()) as usize;
        let before = shadow.clone();
        shadow[off..off + data.len()].copy_from_slice(data);
        if shadow != before {
            expected.push(shadow.clone());
        } else {
            assert_eq!(k, stores.len() - 1, "only the publish may repeat bytes");
        }
    }

    let mut prev = &initial;
    let mut changed = Vec::new();
    for (hook, snap) in snaps.iter().enumerate() {
        if snap != prev {
            changed.push((hook, snap));
        }
        prev = snap;
    }
    assert!(
        changed.len() >= expected.len(),
        "{layout:?}: {} region changes, expected at least {}",
        changed.len(),
        expected.len()
    );
    for (k, ((_, got), want)) in changed.iter().zip(&expected).enumerate() {
        assert!(
            *got == want,
            "{layout:?}: store {k} of {} differs",
            stores.len()
        );
    }
    // Every store up to the last chunk lands on the hook after the
    // previous one: the writer stores once per wake.
    let paced = stores.len() - 1;
    let first = changed[0].0;
    for (k, &(hook, _)) in changed.iter().take(paced).enumerate() {
        assert_eq!(hook, first + k, "{layout:?}: store {k} skipped a wake");
    }
}

fn store(layout: StoreLayout) -> ObjectStore {
    ObjectStore::new(STORE_NODE as u8, Addr::new(0), layout, PAYLOAD, 2)
}

#[test]
fn writer_stores_follow_update_chunks() {
    for (store_layout, layout) in LAYOUTS {
        let store = store(store_layout);
        let writer = Writer::new(vec![(1, store.object_addr(1))], PAYLOAD, layout, Time::ZERO);
        let run = run_watched(&store, Box::new(writer), None);
        assert_first_update(&store, 1, 0, run);
    }
}

#[test]
fn rpc_write_server_stores_follow_update_chunks() {
    for (store_layout, _) in LAYOUTS {
        let store = store(store_layout);
        // One key, so every write lands on the object it hashes to.
        let kv = KvStore::new(store.clone(), 1);
        let (obj, _) = kv.locate(0);
        let server = RpcWriteServer::new(kv.clone());
        let client = RpcWriter::endless(kv, 0, Time::ZERO);
        let run = run_watched(&store, Box::new(server), Some(Box::new(client)));
        // The server numbers its updates from 1.
        assert_first_update(&store, obj, 1, run);
    }
}

#[test]
fn recovering_writer_stores_follow_update_chunks() {
    for (store_layout, layout) in LAYOUTS {
        let store = store(store_layout);
        let log = WriteLog::new(Addr::new(1 << 20), 16);
        let writer = RecoveringWriter::new(
            vec![(1, store.object_addr(1))],
            PAYLOAD,
            layout,
            Time::ZERO,
            log,
            vec![1 - STORE_NODE as u8],
            Addr::new(2 << 20),
            0,
        );
        let run = run_watched(&store, Box::new(writer), None);
        assert_first_update(&store, 1, 0, run);
    }
}
