//! `provider_cow`: copy-on-write provider traffic over a fleet catalog.
//!
//! One in-memory system, a 20k-row user dictionary and 1000 tenant
//! pairs. Set-up COW-forks every delegate, so the dictionary authority
//! carries 1000 delta tables, views and trigger sets. The mix is 70%
//! delegate point queries, 20% delegate updates into the delta, 9%
//! base-table updates by a normal app (U2 traffic) and 1% `clear_vol`,
//! after which the tenant's next update forks again. One op in 16 is
//! preceded by the delegate reading its app's private 1 KiB file and
//! writing a volatile one, so the file metrics every workload reports
//! have samples here too. Providers, cowproxy and sqldb do nearly all
//! the work; vfs almost none.
//!
//! Rows are split between the workers like tenants are, so each row's
//! expected value is known to exactly one worker: a delegate sees its
//! own last update, else the base row's last value.

use crate::ops;
use crate::record::Recorder;
use crate::rng::{self, Rng};
use crate::trace::{Tracer, DRAIN_EVERY};
use crate::{worker_of, Fixture, Phase, Round, WORKERS};
use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri};
use maxoid_vfs::{vpath, Mode, VPath};
use std::collections::BTreeMap;
use std::time::Instant;

const FILE_BYTES: usize = 1024;
/// One op in this many is preceded by a file read and a volatile write.
const FILE_EVERY: u64 = 16;

/// Size of the catalog and of one window.
#[derive(Debug, Clone)]
pub struct Params {
    /// Initiator/delegate pairs.
    pub tenants: usize,
    /// Dictionary rows.
    pub rows: usize,
    /// Ops per window, split evenly between the workers.
    pub ops: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Self {
        Params { tenants: 1000, rows: 20_000, ops: 2_000 }
    }
}

struct Tenant {
    init: String,
    del_pid: Pid,
    /// The delegate's app's private file.
    file: VPath,
    /// The delegate's volatile public file.
    vol: VPath,
}

/// A worker's view of the values it wrote.
#[derive(Debug, Default)]
struct Expect {
    /// Base rows this worker's writer updated: row → op number.
    base: BTreeMap<i64, u64>,
    /// Per tenant, delta rows: row → op number.
    delta: BTreeMap<usize, BTreeMap<i64, u64>>,
    /// Per tenant that wrote its volatile file: the op number of the
    /// last write, or `None` once a `clear_vol` discarded it.
    vol: BTreeMap<usize, Option<u64>>,
}

/// A set-up catalog.
pub struct ProviderCow {
    sys: MaxoidSystem,
    seed: u64,
    /// Ops per worker per window.
    ops: usize,
    words: Uri,
    /// Row ids in insertion order; row `i` is owned by `worker_of(i)`.
    ids: Vec<i64>,
    tenants: Vec<Tenant>,
    writers: Vec<Pid>,
    observer: Pid,
    /// Delta rows written by set-up's forking updates, per worker.
    forks: Vec<Expect>,
}

fn base_word(i: usize) -> String {
    format!("w{i}")
}

fn delegate_value(t: usize, n: u64) -> String {
    format!("d{t}_{n}")
}

fn writer_value(w: usize, n: u64) -> String {
    format!("b{w}_{n}")
}

fn file_key(seed: u64, t: usize) -> u64 {
    rng::hash(seed, &[1, t as u64])
}

fn body_key(seed: u64, t: usize, n: u64) -> u64 {
    rng::hash(seed, &[2, t as u64, n])
}

/// A uniformly drawn row index owned by worker `w`.
fn pick_row(rng: &mut Rng, rows: usize, w: usize) -> usize {
    let owned = (rows - w).div_ceil(WORKERS);
    w + WORKERS * rng.below(owned)
}

fn setup(seed: u64, p: &Params) -> Result<ProviderCow, String> {
    let e = |what: &'static str| {
        move |err: maxoid::SystemError| format!("provider_cow set-up, {what}: {err}")
    };
    let sys = MaxoidSystem::boot().map_err(e("boot"))?;
    for app in ["cow.seeder", "cow.observer"] {
        sys.install(app, vec![], MaxoidManifest::new()).map_err(e("install"))?;
    }
    let seeder = sys.launch("cow.seeder").map_err(e("launch"))?;
    let observer = sys.launch("cow.observer").map_err(e("launch"))?;
    let mut writers = Vec::with_capacity(WORKERS);
    for w in 0..WORKERS {
        let app = format!("cow.writer{w}");
        sys.install(&app, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        writers.push(sys.launch(&app).map_err(e("launch"))?);
    }
    let words = Uri::parse("content://user_dictionary/words").map_err(|x| x.to_string())?;
    let mut ids = Vec::with_capacity(p.rows);
    for i in 0..p.rows {
        let vals = ContentValues::new().put("word", base_word(i).as_str());
        let uri = sys.cp_insert(seeder, &words, &vals).map_err(e("seed dictionary"))?;
        ids.push(uri.id().ok_or("insert returned no row id")?);
    }
    let mut tenants = Vec::with_capacity(p.tenants);
    let mut buf = vec![0u8; FILE_BYTES];
    for t in 0..p.tenants {
        let app = format!("cow.app{t}");
        let init = format!("cow.init{t}");
        sys.install(&app, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        sys.install(&init, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        let own = sys.launch(&app).map_err(e("launch"))?;
        let dir = vpath(&format!("/data/data/{app}/files"));
        sys.kernel.mkdir_all(own, &dir, Mode::PRIVATE).map_err(|x| x.to_string())?;
        let file = dir.join("orig.dat").map_err(|x| x.to_string())?;
        rng::fill(&mut buf, file_key(seed, t));
        sys.kernel.write(own, &file, &buf, Mode::PRIVATE).map_err(|x| x.to_string())?;
        let del_pid = sys.launch_as_delegate(&app, &init).map_err(e("delegate"))?;
        let vol = vpath(&format!("/storage/sdcard/{init}_v.dat"));
        tenants.push(Tenant { init, del_pid, file, vol });
    }
    // COW-fork every delegate with one update of a row its worker owns.
    let mut forks: Vec<Expect> = (0..WORKERS).map(|_| Expect::default()).collect();
    let mut rng = Rng::new(seed, u64::MAX);
    for (t, ten) in tenants.iter().enumerate() {
        let w = worker_of(t);
        let id = ids[pick_row(&mut rng, p.rows, w)];
        let vals = ContentValues::new().put("word", delegate_value(t, 0).as_str());
        let args = QueryArgs::default();
        sys.cp_update(ten.del_pid, &words.with_id(id), &vals, &args).map_err(e("fork"))?;
        forks[w].delta.entry(t).or_default().insert(id, 0);
    }
    Ok(ProviderCow {
        sys,
        seed,
        ops: p.ops / WORKERS,
        words,
        ids,
        tenants,
        writers,
        observer,
        forks,
    })
}

/// One worker's op generator and the values it wrote.
pub struct Worker {
    w: usize,
    mine: Vec<usize>,
    rng: Rng,
    /// Ops this worker has issued; op numbers start at 1 (0 marks
    /// set-up's forking update).
    n: u64,
    ex: Expect,
    body: Vec<u8>,
}

impl Fixture for ProviderCow {
    type Worker = Worker;

    fn sys(&self) -> &MaxoidSystem {
        &self.sys
    }

    fn pids(&self) -> Vec<Pid> {
        self.tenants.iter().map(|t| t.del_pid).collect()
    }

    fn workers(&self) -> Vec<Worker> {
        (0..WORKERS)
            .map(|w| Worker {
                w,
                mine: (0..self.tenants.len()).filter(|&t| worker_of(t) == w).collect(),
                rng: Rng::new(self.seed, w as u64),
                n: 0,
                ex: Expect {
                    base: BTreeMap::new(),
                    delta: self.forks[w].delta.clone(),
                    vol: BTreeMap::new(),
                },
                body: vec![0u8; FILE_BYTES],
            })
            .collect()
    }

    fn run(&self, wk: &mut Worker, tracer: Option<&Tracer>) -> Recorder {
        let sys = &self.sys;
        let traced = tracer.is_some();
        let w = wk.w;
        let mut rec = Recorder::default();
        for i in 1..=self.ops {
            wk.n += 1;
            let n = wk.n;
            let dice = wk.rng.below(100);
            let t = wk.mine[wk.rng.below(wk.mine.len())];
            let row = pick_row(&mut wk.rng, self.ids.len(), w);
            let id = self.ids[row];
            let ten = &self.tenants[t];
            let uri = self.words.with_id(id);
            let ex = &mut wk.ex;
            let files = n.is_multiple_of(FILE_EVERY);
            rec.note(&[dice as u64, t as u64, row as u64, u64::from(files)]);
            if files {
                rng::fill(&mut wk.body, body_key(self.seed, t, n));
            }
            let started = Instant::now();
            if files {
                let read = ops::fs_read(sys, &mut rec, traced, ten.del_pid, &ten.file);
                let wrote = ops::fs_write(sys, &mut rec, traced, ten.del_pid, &ten.vol, &wk.body);
                if let Some(data) = read {
                    let want = rng::payload(FILE_BYTES, file_key(self.seed, t));
                    rec.check(data == want, || {
                        format!("provider_cow: tenant {t} read wrong bytes")
                    });
                }
                if wrote.is_some() {
                    ex.vol.insert(t, Some(n));
                }
            }
            match dice {
                0..=69 => {
                    let got = ops::cp_query(sys, &mut rec, traced, ten.del_pid, &uri);
                    rec.push(ops::SESSION, started.elapsed());
                    if let Some(rs) = got {
                        let want = match ex.delta.get(&t).and_then(|d| d.get(&id)) {
                            Some(&m) => delegate_value(t, m),
                            None => ex
                                .base
                                .get(&id)
                                .map_or_else(|| base_word(row), |&m| writer_value(w, m)),
                        };
                        rec.check(ops::word_of(&rs) == Some(want.as_str()), || {
                            format!(
                                "provider_cow: tenant {t} row {id} read {:?}, want {want}",
                                ops::word_of(&rs)
                            )
                        });
                    }
                }
                70..=89 => {
                    let vals = ContentValues::new().put("word", delegate_value(t, n).as_str());
                    let changed = ops::cp_update(
                        sys,
                        &mut rec,
                        traced,
                        ops::CP_UPDATE,
                        ten.del_pid,
                        &uri,
                        &vals,
                    );
                    rec.push(ops::SESSION, started.elapsed());
                    if let Some(c) = changed {
                        rec.check(c == 1, || {
                            format!("provider_cow: delegate update changed {c} rows")
                        });
                        ex.delta.entry(t).or_default().insert(id, n);
                    }
                }
                90..=98 => {
                    let vals = ContentValues::new().put("word", writer_value(w, n).as_str());
                    let changed = ops::cp_update(
                        sys,
                        &mut rec,
                        traced,
                        ops::BASE_UPDATE,
                        self.writers[w],
                        &uri,
                        &vals,
                    );
                    rec.push(ops::SESSION, started.elapsed());
                    if let Some(c) = changed {
                        rec.check(c == 1, || format!("provider_cow: base update changed {c} rows"));
                        ex.base.insert(id, n);
                    }
                }
                _ => {
                    let cleared = ops::clear_vol(sys, &mut rec, traced, &ten.init);
                    rec.push(ops::SESSION, started.elapsed());
                    if cleared.is_some() {
                        ex.delta.remove(&t);
                        if let Some(last) = ex.vol.get_mut(&t) {
                            *last = None;
                        }
                    }
                }
            }
            if let Some(tr) = tracer.filter(|_| i % DRAIN_EVERY == 0) {
                tr.drain();
            }
        }
        rec
    }

    /// S2 and U2 on the base table: a normal app sees every row at the
    /// value the writers last gave it, and never a delegate's value.
    /// Each delegate reads its last volatile write back, which a normal
    /// app cannot read, or finds it gone after a `clear_vol`.
    fn check(&self, rec: &mut Recorder, workers: &mut [Worker]) -> BTreeMap<&'static str, u64> {
        for (&t, last) in workers.iter().flat_map(|wk| &wk.ex.vol) {
            let ten = &self.tenants[t];
            let own = self.sys.kernel.read(ten.del_pid, &ten.vol);
            match *last {
                Some(n) => {
                    let want = rng::payload(FILE_BYTES, body_key(self.seed, t, n));
                    rec.check(own.as_deref().ok() == Some(want.as_slice()), || {
                        format!("provider_cow: tenant {t} lost its volatile write")
                    });
                    rec.check(self.sys.kernel.read(self.observer, &ten.vol).is_err(), || {
                        format!("provider_cow: a normal app can read {}", ten.vol)
                    });
                }
                None => rec.check(own.is_err(), || {
                    format!("provider_cow: tenant {t}'s volatile file survived clear_vol")
                }),
            }
        }
        let rs = match self.sys.cp_query(self.observer, &self.words, &QueryArgs::default()) {
            Ok(rs) => rs,
            Err(e) => {
                rec.check(false, || format!("provider_cow: base scan failed: {e}"));
                return BTreeMap::new();
            }
        };
        let seen: BTreeMap<i64, String> = ops::id_words(&rs).into_iter().collect();
        rec.check(seen.len() == self.ids.len(), || {
            format!("provider_cow: base table has {} rows, want {}", seen.len(), self.ids.len())
        });
        for (row, id) in self.ids.iter().enumerate() {
            let w = worker_of(row);
            let want =
                workers[w].ex.base.get(id).map_or_else(|| base_word(row), |&m| writer_value(w, m));
            let got = seen.get(id);
            rec.check(got == Some(&want), || {
                format!("provider_cow: base row {id} is {got:?}, want {want}")
            });
        }
        BTreeMap::new()
    }
}

/// Sets up the catalog and runs one round of windows.
pub fn round(seed: u64, p: &Params, plan: &[Phase]) -> Result<Round, String> {
    let started = Instant::now();
    let fx = setup(seed, p)?;
    Round::drive(&fx, started.elapsed().as_secs_f64(), plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_stay_in_their_workers_partition() {
        let mut rng = Rng::new(5, 5);
        for rows in [1usize, 2, 7, 20] {
            for w in 0..WORKERS.min(rows) {
                for _ in 0..50 {
                    let r = pick_row(&mut rng, rows, w);
                    assert!(r < rows && worker_of(r) == w, "row {r} of {rows} for worker {w}");
                }
            }
        }
    }
}
