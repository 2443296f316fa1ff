//! `fleet`: many small tenants doing file I/O through their unions.
//!
//! One in-memory system with 1000 initiator/delegate pairs. Each
//! delegate owns four private 1 KiB files. Tenants are drawn by
//! Zipf(1.0). A session is two union reads, one volatile public write
//! (eight rotating names per tenant), a provider point query on a
//! 100-row dictionary in one session of 16 (an update instead in one of
//! 64) and an empty `commit_vol` in one of 128. Kernel and vfs do almost
//! all the work; providers little; journal and block nothing.

use crate::ops;
use crate::record::Recorder;
use crate::rng::{self, Rng, Zipf};
use crate::trace::{Tracer, DRAIN_EVERY};
use crate::{worker_of, Fixture, Phase, Round, WORKERS};
use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, Uri, VolCommitPlan};
use maxoid_vfs::{vpath, Mode, VPath};
use std::collections::BTreeMap;
use std::time::Instant;

const FILES: usize = 4;
const FILE_BYTES: usize = 1024;
const DICT_ROWS: usize = 100;
const VOL_NAMES: usize = 8;
const ZIPF_S: f64 = 1.0;

/// Size of the fleet and of one window.
#[derive(Debug, Clone)]
pub struct Params {
    /// Initiator/delegate pairs.
    pub tenants: usize,
    /// Sessions per window, split evenly between the workers.
    pub sessions: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Self {
        Params { tenants: 1000, sessions: 30_000 }
    }
}

struct Tenant {
    init: String,
    del_pid: Pid,
    files: Vec<VPath>,
    vol: Vec<VPath>,
    vol_names: Vec<String>,
}

/// What a worker knows each of its tenants should see.
#[derive(Debug, Default, Clone)]
struct Expect {
    sessions: u64,
    /// Session number that last wrote each volatile name.
    vol_last: [Option<u64>; VOL_NAMES],
    /// Dictionary rows this tenant's delegate updated: row → session.
    delta: BTreeMap<i64, u64>,
}

/// A booted fleet.
pub struct Fleet {
    sys: MaxoidSystem,
    seed: u64,
    /// Sessions per worker per window.
    sessions: usize,
    words: Uri,
    dict: Vec<(i64, String)>,
    tenants: Vec<Tenant>,
    observer: Pid,
}

fn file_key(seed: u64, t: usize, i: usize) -> u64 {
    rng::hash(seed, &[1, t as u64, i as u64])
}

fn body_key(seed: u64, t: usize, n: u64) -> u64 {
    rng::hash(seed, &[2, t as u64, n])
}

fn update_value(t: usize, n: u64) -> String {
    format!("d{t}_{n}")
}

fn setup(seed: u64, p: &Params) -> Result<Fleet, String> {
    let e = |what: &str| {
        let what = what.to_string();
        move |err: maxoid::SystemError| format!("fleet set-up, {what}: {err}")
    };
    let sys = MaxoidSystem::boot().map_err(e("boot"))?;
    sys.install("fleet.seeder", vec![], MaxoidManifest::new()).map_err(e("install"))?;
    sys.install("fleet.observer", vec![], MaxoidManifest::new()).map_err(e("install"))?;
    let seeder = sys.launch("fleet.seeder").map_err(e("launch"))?;
    let observer = sys.launch("fleet.observer").map_err(e("launch"))?;
    let words = Uri::parse("content://user_dictionary/words").map_err(|e| e.to_string())?;
    let mut dict = Vec::with_capacity(DICT_ROWS);
    for i in 0..DICT_ROWS {
        let word = format!("w{i}");
        let uri = sys
            .cp_insert(seeder, &words, &ContentValues::new().put("word", word.as_str()))
            .map_err(e("seed dictionary"))?;
        dict.push((uri.id().ok_or("insert returned no row id")?, word));
    }
    let mut tenants = Vec::with_capacity(p.tenants);
    let mut buf = vec![0u8; FILE_BYTES];
    for t in 0..p.tenants {
        let app = format!("fleet.app{t}");
        let init = format!("fleet.init{t}");
        sys.install(&app, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        sys.install(&init, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        let own = sys.launch(&app).map_err(e("launch"))?;
        let dir = vpath(&format!("/data/data/{app}/files"));
        sys.kernel.mkdir_all(own, &dir, Mode::PRIVATE).map_err(|x| x.to_string())?;
        let mut files = Vec::with_capacity(FILES);
        for i in 0..FILES {
            let path = dir.join(&format!("orig{i}.dat")).map_err(|x| x.to_string())?;
            rng::fill(&mut buf, file_key(seed, t, i));
            sys.kernel.write(own, &path, &buf, Mode::PRIVATE).map_err(|x| x.to_string())?;
            files.push(path);
        }
        let del_pid = sys.launch_as_delegate(&app, &init).map_err(e("delegate"))?;
        let vol_names: Vec<String> = (0..VOL_NAMES).map(|s| format!("{init}_s{s}.dat")).collect();
        let vol = vol_names.iter().map(|n| vpath(&format!("/storage/sdcard/{n}"))).collect();
        tenants.push(Tenant { init, del_pid, files, vol, vol_names });
    }
    Ok(Fleet { sys, seed, sessions: p.sessions / WORKERS, words, dict, tenants, observer })
}

/// One worker's op generator and what its tenants should see.
pub struct Worker {
    mine: Vec<usize>,
    zipf: Zipf,
    rng: Rng,
    /// Sessions this worker has issued.
    k: u64,
    expect: BTreeMap<usize, Expect>,
    body: Vec<u8>,
}

impl Fixture for Fleet {
    type Worker = Worker;

    fn sys(&self) -> &MaxoidSystem {
        &self.sys
    }

    fn pids(&self) -> Vec<Pid> {
        self.tenants.iter().map(|t| t.del_pid).collect()
    }

    fn workers(&self) -> Vec<Worker> {
        (0..WORKERS)
            .map(|w| {
                let mine: Vec<usize> =
                    (0..self.tenants.len()).filter(|&t| worker_of(t) == w).collect();
                Worker {
                    zipf: Zipf::new(&mine, ZIPF_S),
                    mine,
                    rng: Rng::new(self.seed, w as u64),
                    k: 0,
                    expect: BTreeMap::new(),
                    body: vec![0u8; FILE_BYTES],
                }
            })
            .collect()
    }

    fn run(&self, wk: &mut Worker, tracer: Option<&Tracer>) -> Recorder {
        let sys = &self.sys;
        let traced = tracer.is_some();
        let mut rec = Recorder::default();
        let mut reads: [Option<Vec<u8>>; 2] = [None, None];
        for i in 1..=self.sessions {
            let k = wk.k;
            wk.k += 1;
            let t = wk.mine[wk.zipf.sample(&mut wk.rng)];
            let ten = &self.tenants[t];
            let ex = wk.expect.entry(t).or_default();
            let n = ex.sessions;
            ex.sessions += 1;
            let slot = (n % VOL_NAMES as u64) as usize;
            rng::fill(&mut wk.body, body_key(self.seed, t, n));
            let cp = k % 16 == 7;
            let update = k % 64 == 39;
            let gesture = k % 128 == 63;
            let row = wk.rng.below(DICT_ROWS);
            let (id, base_word) = &self.dict[row];
            let value = update.then(|| update_value(t, n));
            rec.note(&[t as u64, n, u64::from(cp), u64::from(update), row as u64]);

            let started = Instant::now();
            for (i, read) in reads.iter_mut().enumerate() {
                let file = &ten.files[(k as usize + i) % FILES];
                *read = ops::fs_read(sys, &mut rec, traced, ten.del_pid, file);
            }
            let wrote = ops::fs_write(sys, &mut rec, traced, ten.del_pid, &ten.vol[slot], &wk.body);
            let mut queried = None;
            let mut updated = None;
            if let Some(v) = &value {
                let vals = ContentValues::new().put("word", v.as_str());
                let uri = self.words.with_id(*id);
                updated =
                    ops::cp_update(sys, &mut rec, traced, ops::CP_UPDATE, ten.del_pid, &uri, &vals);
            } else if cp {
                queried =
                    ops::cp_query(sys, &mut rec, traced, ten.del_pid, &self.words.with_id(*id));
            }
            if gesture {
                ops::commit_vol(sys, &mut rec, traced, &ten.init, &VolCommitPlan::default());
            }
            rec.push(ops::SESSION, started.elapsed());

            for (i, read) in reads.iter_mut().enumerate() {
                if let Some(data) = read.take() {
                    let f = (k as usize + i) % FILES;
                    let want = rng::payload(FILE_BYTES, file_key(self.seed, t, f));
                    rec.check(data == want, || format!("fleet: tenant {t} read wrong bytes"));
                }
            }
            if wrote.is_some() {
                ex.vol_last[slot] = Some(n);
            }
            if updated.is_some() {
                ex.delta.insert(*id, n);
            }
            if let Some(rs) = queried {
                let want =
                    ex.delta.get(id).map_or_else(|| base_word.clone(), |&m| update_value(t, m));
                rec.check(ops::word_of(&rs) == Some(want.as_str()), || {
                    format!("fleet: tenant {t} row {id} read {:?}, want {want}", ops::word_of(&rs))
                });
            }
            if let Some(tr) = tracer.filter(|_| i % DRAIN_EVERY == 0) {
                tr.drain();
            }
        }
        rec
    }

    /// S2 for volatile files: each tenant's delegate reads its own last
    /// write back; the public branch, a normal app and a neighbouring
    /// tenant's delegate see none of it.
    fn check(&self, rec: &mut Recorder, workers: &mut [Worker]) -> BTreeMap<&'static str, u64> {
        let sys = &self.sys;
        let public = maxoid::layout::back_ext_pub();
        for (&t, ex) in workers.iter().flat_map(|wk| &wk.expect) {
            let ten = &self.tenants[t];
            let neighbour = self.tenants[(t + 1) % self.tenants.len()].del_pid;
            for (slot, last) in ex.vol_last.iter().enumerate() {
                let Some(n) = *last else { continue };
                let path = &ten.vol[slot];
                let own = sys.kernel.read(ten.del_pid, path);
                let want = rng::payload(FILE_BYTES, body_key(self.seed, t, n));
                rec.check(own.as_deref().ok() == Some(want.as_slice()), || {
                    format!("fleet: tenant {t} lost its volatile write {path}")
                });
                let in_public = public
                    .join(&ten.vol_names[slot])
                    .map(|p| sys.kernel.vfs().with_store(|s| s.exists(&p)))
                    .unwrap_or(true);
                rec.check(!in_public, || format!("fleet: {path} leaked into the public branch"));
                rec.check(sys.kernel.read(self.observer, path).is_err(), || {
                    format!("fleet: a normal app can read {path}")
                });
                rec.check(sys.kernel.read(neighbour, path).is_err(), || {
                    format!("fleet: another tenant can read {path}")
                });
            }
        }
        BTreeMap::new()
    }
}

/// Sets up a fleet and runs one round of windows.
pub fn round(seed: u64, p: &Params, plan: &[Phase]) -> Result<Round, String> {
    let started = Instant::now();
    let fx = setup(seed, p)?;
    Round::drive(&fx, started.elapsed().as_secs_f64(), plan)
}
