//! One edit grammar for plans: the fuzzer draws the edits the shrinker
//! drops.
//!
//! An [`Edit`] is a [`Kind`] (`add`, `drop`, `set`), a [`Site`] and the
//! [`Value`] it writes there. It carries every value it sets — a
//! regenerated subtree carries its seed — so its one-line text form alone
//! rebuilds the plan. A [`Recipe`], a base seed plus an edit list, is the
//! one corpus format: an entry is `config.txt` plus `recipe.txt`, however
//! it was found ([`load_corpus_plan`]). One function each: [`apply`]
//! (ending in [`validate_plan`]), [`sites`] (where an edit can go),
//! [`draw`] (the fuzzer's mutation) and [`shrink`] (1-minimal drops).
//!
//! Text form: `<kind> <target> <operands> [<values>]`. Actions are named
//! by their unique name, indices count into the target's list in the plan
//! the edit applies to, and `add` inserts at its index:
//!
//! ```text
//! seed 42
//! add crash 1 2 0 1200000 -       # thread, top action, delay, rejoin|-
//! set fault 0 App lose 1 4 2      # class, lose|corrupt, src|-, skip, count
//! add top a0                      # append a renamed copy of a0
//! set child a0 1 0 977134         # regenerate a0's phase 1 child 0
//! set timing 0.31 0.02 0.1 0.25   # t_mmax t_reso delta t_abort, exact
//! ```
//!
//! **Adding an edit target**: a [`Site`] variant, its [`apply`] and
//! [`sites`] arms, one text form (word, operands, value shape) and its
//! `draw` values; `tests/fuzz_mutators.rs` then checks its classes fire.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use crate::arena::ExecutionArena;
use crate::exec::execute_in;
use crate::oracle::check_run;
use crate::plan::{
    gen_subtree, plan_object_depth, rename_subtree, validate_plan, ActionPlan, CrashChoice,
    FaultChoice, ObjectOp, Phase, RaisePhase, ScenarioConfig, ScenarioPlan, VerdictChoice,
};
use crate::rng::Rng;

/// What an edit does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Insert at the site's index (`add top` appends a renamed copy).
    Add,
    /// Remove what is at the site.
    Drop,
    /// Overwrite what is at the site.
    Set,
}

/// Where an edit lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Site {
    /// Crash schedule `i`.
    Crash(usize),
    /// Fault rule `i`.
    Fault(usize),
    /// The named top-level action.
    Top(String),
    /// The highest-numbered thread (`drop` only).
    Thread,
    /// The named action's raise phase.
    Raise(String),
    /// Raiser `i` of the named action.
    Raiser(String, usize),
    /// Phase `p` of the named action.
    Phase(String, usize),
    /// Child `c` of the named action's nested phase `p`.
    Child(String, usize, usize),
    /// Object operation `k` of the named action's compute phase `p`.
    Op(String, usize, usize),
    /// Send `k` of the named action's compute phase `p`.
    Send(String, usize, usize),
    /// Listener `k` of the named action's compute phase `p`.
    Listener(String, usize, usize),
    /// Verdict `k` of the named action.
    Verdict(String, usize),
    /// Eab designation `k` of the named action.
    Eab(String, usize),
    /// The plan's timing parameters.
    Timing,
    /// The plan's timeout hierarchy.
    Timeouts,
}

/// What an `add` or `set` writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A crash schedule.
    Crash(CrashChoice),
    /// A fault rule.
    Fault(FaultChoice),
    /// A subtree's seed, a phase's duration, a listener or an Eab thread.
    Int(u64),
    /// `(thread, delay_ns)` raisers: a raise phase, or one raiser.
    Raisers(Vec<(u32, u64)>),
    /// A shared-object operation.
    Op(ObjectOp),
    /// A `(from, to)` send.
    Send(u32, u32),
    /// A handler verdict.
    Verdict(VerdictChoice),
    /// Seconds: `t_mmax t_reso delta t_abort`, or `signal exit resolution`.
    Reals(Vec<f64>),
}

/// One concrete plan edit (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Edit {
    /// What the edit does.
    pub kind: Kind,
    /// Where it does it.
    pub site: Site,
    /// What it writes (`None` for drops and `add top`).
    pub value: Option<Value>,
}

impl Edit {
    /// The `drop` edit at `site`.
    #[must_use]
    pub fn drop(site: Site) -> Edit {
        let (kind, value) = (Kind::Drop, None);
        Edit { kind, site, value }
    }
}

/// A base seed and the edits applied to it, in order: with the
/// [`ScenarioConfig`] it rebuilds the plan byte-exactly
/// ([`Recipe::materialize`]). Its text form is `recipe.txt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// The base scenario seed ([`ScenarioPlan::generate`]).
    pub seed: u64,
    /// The edits, applied in order through [`apply`].
    pub edits: Vec<Edit>,
}

impl Recipe {
    /// The unedited plan of `seed`.
    #[must_use]
    pub fn base(seed: u64) -> Recipe {
        let edits = Vec::new();
        Recipe { seed, edits }
    }

    /// Generates the base seed under `config` and applies every edit.
    ///
    /// # Errors
    ///
    /// Names the first edit that no longer applies.
    pub fn materialize(&self, config: &ScenarioConfig) -> Result<ScenarioPlan, String> {
        let mut plan = ScenarioPlan::generate(self.seed, config);
        for edit in &self.edits {
            plan = apply(&plan, edit).ok_or_else(|| format!("edit `{edit}` does not apply"))?;
        }
        Ok(plan)
    }

    /// The corpus-entry name: the bare seed for an unedited plan (the
    /// sweep's convention), else `<seed>-r<hash of the whole recipe>`, so
    /// two finds from one base seed never share an entry.
    #[must_use]
    pub fn entry_name(&self) -> String {
        if self.edits.is_empty() {
            return self.seed.to_string();
        }
        let hash = crate::trace::hash64(self.to_string().as_bytes());
        format!("{}-r{:08x}", self.seed, hash as u32)
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {}", self.seed)?;
        self.edits.iter().try_for_each(|edit| writeln!(f, "{edit}"))
    }
}

impl FromStr for Recipe {
    type Err = String;

    fn from_str(text: &str) -> Result<Recipe, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let seed = lines.next().and_then(|l| l.strip_prefix("seed "));
        let seed = seed.ok_or("a recipe starts with a `seed <n>` line")?;
        Ok(Recipe {
            seed: seed.parse().map_err(|e| format!("bad seed: {e}"))?,
            edits: lines.map(str::parse).collect::<Result<_, _>>()?,
        })
    }
}

/// Loads a corpus entry — `config.txt` and `recipe.txt`, the one layout of
/// a sweep's violating seed, a fuzz find and a shrunk find — and
/// materializes its plan.
///
/// # Errors
///
/// A human-readable message when the entry is unreadable or malformed.
pub fn load_corpus_plan(entry: &Path) -> Result<(ScenarioPlan, ScenarioConfig, Recipe), String> {
    let read = |file: &str| {
        let path = entry.join(file);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))
    };
    let config = ScenarioConfig::from_kv(&read("config.txt")?)?;
    let recipe: Recipe = read("recipe.txt")?.parse()?;
    Ok((recipe.materialize(&config)?, config, recipe))
}

// ---------------------------------------------------------------------------
// Text form.
// ---------------------------------------------------------------------------

const KINDS: [(Kind, &str); 3] = [(Kind::Add, "add"), (Kind::Drop, "drop"), (Kind::Set, "set")];
const CLASSES: [(&str, &str); 2] = [("toBeSignalled", "toBeSignalled"), ("App", "App")];
const LOSE: [(bool, &str); 2] = [(true, "lose"), (false, "corrupt")];
const UPDATE: [(bool, &str); 2] = [(true, "update"), (false, "read")];
const VERDICTS: [(VerdictChoice, &str); 4] = [
    (VerdictChoice::Recovered, "recovered"),
    (VerdictChoice::Undo, "undo"),
    (VerdictChoice::Signal, "signal"),
    (VerdictChoice::Fail, "fail"),
];

/// `value`'s word in `table`.
fn word<T: PartialEq>(table: &[(T, &'static str)], value: &T) -> &'static str {
    let found = table.iter().find(|(v, _)| v == value);
    found.map_or("?", |(_, w)| w)
}

/// `-` for an absent optional operand.
fn opt(value: Option<impl fmt::Display>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

impl Site {
    /// The target's word in the text form.
    fn target(&self) -> &'static str {
        match self {
            Site::Crash(_) => "crash",
            Site::Fault(_) => "fault",
            Site::Top(_) => "top",
            Site::Thread => "thread",
            Site::Raise(_) => "raise",
            Site::Raiser(..) => "raiser",
            Site::Phase(..) => "phase",
            Site::Child(..) => "child",
            Site::Op(..) => "op",
            Site::Send(..) => "send",
            Site::Listener(..) => "listener",
            Site::Verdict(..) => "verdict",
            Site::Eab(..) => "eab",
            Site::Timing => "timing",
            Site::Timeouts => "timeouts",
        }
    }

    /// The site's action and indices.
    fn operands(&self) -> (Option<&str>, Vec<usize>) {
        match self {
            Site::Crash(i) | Site::Fault(i) => (None, vec![*i]),
            Site::Thread | Site::Timing | Site::Timeouts => (None, vec![]),
            Site::Top(a) | Site::Raise(a) => (Some(a), vec![]),
            Site::Raiser(a, i) | Site::Phase(a, i) | Site::Verdict(a, i) | Site::Eab(a, i) => {
                (Some(a), vec![*i])
            }
            Site::Child(a, p, i)
            | Site::Op(a, p, i)
            | Site::Send(a, p, i)
            | Site::Listener(a, p, i) => (Some(a), vec![*p, *i]),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Crash(c) => {
                let rejoin = opt(c.rejoin_delay_ns);
                write!(f, "{} {} {} {rejoin}", c.thread, c.top_action, c.delay_ns)
            }
            Value::Fault(x) => {
                let (lose, src) = (word(&LOSE, &x.lose), opt(x.src));
                write!(f, "{} {lose} {src} {} {}", x.class, x.skip, x.count)
            }
            Value::Int(n) => write!(f, "{n}"),
            Value::Raisers(raisers) => {
                let pairs: Vec<String> = raisers.iter().map(|(t, d)| format!("{t}:{d}")).collect();
                f.write_str(&pairs.join(" "))
            }
            Value::Op(op) => {
                let update = word(&UPDATE, &op.update);
                write!(f, "{} {} {} {update}", op.thread, op.delay_ns, op.object)
            }
            Value::Send(from, to) => write!(f, "{from} {to}"),
            Value::Verdict(v) => f.write_str(word(&VERDICTS, v)),
            // `f64`'s `Display` is the shortest decimal that parses back to
            // the same bits, so timing values round-trip exactly.
            Value::Reals(reals) => {
                let reals: Vec<String> = reals.iter().map(f64::to_string).collect();
                f.write_str(&reals.join(" "))
            }
        }
    }
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", word(&KINDS, &self.kind), self.site.target())?;
        let (action, indices) = self.site.operands();
        if let Some(action) = action {
            write!(f, " {action}")?;
        }
        indices.iter().try_for_each(|i| write!(f, " {i}"))?;
        match &self.value {
            Some(value) => write!(f, " {value}"),
            None => Ok(()),
        }
    }
}

type Parsed<T> = Result<T, String>;

/// The operands of one edit line, left to right (`t:d` raisers split at
/// the colon).
struct Words<'a>(std::vec::IntoIter<&'a str>);

impl<'a> Words<'a> {
    fn word(&mut self) -> Parsed<&'a str> {
        self.0.next().ok_or_else(|| "missing operand".to_owned())
    }

    fn num<T: FromStr<Err: fmt::Display>>(&mut self) -> Parsed<T> {
        let word = self.word()?;
        word.parse()
            .map_err(|e| format!("bad number {word:?}: {e}"))
    }

    fn opt<T: FromStr<Err: fmt::Display>>(&mut self) -> Parsed<Option<T>> {
        match self.0.as_slice().first() {
            Some(&"-") => Ok(self.0.next().and(None)),
            _ => self.num().map(Some),
        }
    }

    fn of<T: Copy>(&mut self, table: &[(T, &str)]) -> Parsed<T> {
        let word = self.word()?;
        let found = table.iter().find(|(_, w)| *w == word).map(|(v, _)| *v);
        found.ok_or_else(|| format!("unknown word {word:?}"))
    }

    fn rest<T>(&mut self, one: impl Fn(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let mut out = Vec::new();
        while !self.0.as_slice().is_empty() {
            out.push(one(self)?);
        }
        Ok(out)
    }
}

fn parse_site(w: &mut Words<'_>) -> Parsed<Site> {
    Ok(match w.word()? {
        "crash" => Site::Crash(w.num()?),
        "fault" => Site::Fault(w.num()?),
        "top" => Site::Top(w.word()?.into()),
        "thread" => Site::Thread,
        "raise" => Site::Raise(w.word()?.into()),
        "raiser" => Site::Raiser(w.word()?.into(), w.num()?),
        "phase" => Site::Phase(w.word()?.into(), w.num()?),
        "child" => Site::Child(w.word()?.into(), w.num()?, w.num()?),
        "op" => Site::Op(w.word()?.into(), w.num()?, w.num()?),
        "send" => Site::Send(w.word()?.into(), w.num()?, w.num()?),
        "listener" => Site::Listener(w.word()?.into(), w.num()?, w.num()?),
        "verdict" => Site::Verdict(w.word()?.into(), w.num()?),
        "eab" => Site::Eab(w.word()?.into(), w.num()?),
        "timing" => Site::Timing,
        "timeouts" => Site::Timeouts,
        other => return Err(format!("unknown edit target {other:?}")),
    })
}

/// The value an edit of `kind` at `site` carries: the pair fixes its shape.
fn parse_value(kind: Kind, site: &Site, w: &mut Words<'_>) -> Parsed<Option<Value>> {
    Ok(Some(match (kind, site) {
        (Kind::Drop, _) | (_, Site::Thread) | (Kind::Add, Site::Top(_)) => return Ok(None),
        (_, Site::Crash(_)) => Value::Crash(CrashChoice {
            thread: w.num()?,
            top_action: w.num()?,
            delay_ns: w.num()?,
            rejoin_delay_ns: w.opt()?,
        }),
        (_, Site::Fault(_)) => Value::Fault(FaultChoice {
            class: w.of(&CLASSES)?,
            lose: w.of(&LOSE)?,
            src: w.opt()?,
            skip: w.num()?,
            count: w.num()?,
        }),
        (_, Site::Raise(_) | Site::Raiser(..)) => {
            Value::Raisers(w.rest(|w| Ok((w.num()?, w.num()?)))?)
        }
        (_, Site::Op(..)) => Value::Op(ObjectOp {
            thread: w.num()?,
            delay_ns: w.num()?,
            object: w.num()?,
            update: w.of(&UPDATE)?,
        }),
        (_, Site::Send(..)) => Value::Send(w.num()?, w.num()?),
        (_, Site::Verdict(..)) => Value::Verdict(w.of(&VERDICTS)?),
        (_, Site::Timing | Site::Timeouts) => Value::Reals(w.rest(Words::num)?),
        _ => Value::Int(w.num()?),
    }))
}

impl FromStr for Edit {
    type Err = String;

    fn from_str(line: &str) -> Result<Edit, String> {
        let split = line.split(|c: char| c.is_whitespace() || c == ':');
        let tokens: Vec<&str> = split.filter(|t| !t.is_empty()).collect();
        let mut w = Words(tokens.into_iter());
        let parsed = (|| {
            let kind = w.of(&KINDS)?;
            let site = parse_site(&mut w)?;
            let value = parse_value(kind, &site, &mut w)?;
            match w.0.next() {
                Some(extra) => Err(format!("trailing operand {extra:?}")),
                None => Ok(Edit { kind, site, value }),
            }
        })();
        parsed.map_err(|e| format!("{e} in edit {line:?}"))
    }
}

// ---------------------------------------------------------------------------
// apply: one edit, ending in validate_plan.
// ---------------------------------------------------------------------------

/// Applies `edit` to a copy of `plan`. `None` when the site does not
/// exist, the value does not fit it, a dropped top action still hosts a
/// crash, or the result fails [`validate_plan`].
#[must_use]
pub fn apply(plan: &ScenarioPlan, edit: &Edit) -> Option<ScenarioPlan> {
    let mut out = plan.clone();
    edit_plan(&mut out, edit)?;
    validate_plan(&out).ok()?;
    Some(out)
}

/// Inserts, removes or overwrites element `i` of `list`.
fn edit_list<T>(list: &mut Vec<T>, kind: Kind, i: usize, value: Option<T>) -> Option<()> {
    match (kind, value) {
        (Kind::Add, Some(v)) if i <= list.len() => list.insert(i, v),
        (Kind::Drop, None) if i < list.len() => drop(list.remove(i)),
        (Kind::Set, Some(v)) if i < list.len() => list[i] = v,
        _ => return None,
    }
    Some(())
}

/// [`edit_list`] with the edit's value taken in `$shape` (returning
/// `None` from the caller when it has another).
macro_rules! edit_list {
    ($list:expr, $kind:expr, $i:expr, $value:expr, $shape:pat $(if $guard:expr)? => $element:expr) => {{
        let element = match $value {
            None => None,
            Some($shape) $(if $guard)? => Some($element),
            Some(_) => return None,
        };
        edit_list($list, $kind, $i, element)
    }};
}

fn find_action<'p>(plan: &'p ScenarioPlan, name: &str) -> Option<&'p ActionPlan> {
    plan.actions().into_iter().find(|a| a.name == name)
}

fn find_action_mut<'p>(plan: &'p mut ScenarioPlan, name: &str) -> Option<&'p mut ActionPlan> {
    fn walk<'a>(action: &'a mut ActionPlan, name: &str) -> Option<&'a mut ActionPlan> {
        if action.name == name {
            return Some(action);
        }
        action.phases.iter_mut().find_map(|phase| match phase {
            Phase::Nested { children } => children.iter_mut().find_map(|c| walk(c, name)),
            Phase::Compute { .. } => None,
        })
    }
    plan.top.iter_mut().find_map(|a| walk(a, name))
}

/// A fresh subtree in `from`'s place, generated from `seed` by the
/// generator itself, so valid by the same construction: at most one level
/// deeper than the plan (capped at 3), objects at the plan's object depth.
fn regenerate(plan: &ScenarioPlan, seed: u64, from: &ActionPlan) -> ActionPlan {
    let mut rng = Rng::new(seed);
    let max_depth = (plan.max_depth() + 1).min(3);
    let pool = !plan.objects.is_empty();
    let any_depth = |rng: &mut Rng| rng.below(max_depth as u64 + 1) as usize;
    let object_depth = pool.then(|| plan_object_depth(plan).unwrap_or_else(|| any_depth(&mut rng)));
    let (name, group) = (from.name.clone(), from.group.clone());
    let max_depth = max_depth.max(from.depth);
    gen_subtree(&mut rng, name, group, from.depth, max_depth, object_depth)
}

/// Removes thread `t` from an action subtree: membership, sends,
/// listeners, object operations, raisers, verdicts, Eab designations.
/// Children whose group empties disappear with their phase.
fn strip_thread(action: &mut ActionPlan, t: u32) {
    action.group.retain(|&m| m != t);
    for phase in &mut action.phases {
        match phase {
            Phase::Compute {
                sends,
                listeners,
                object_ops,
                ..
            } => {
                sends.retain(|&(from, to)| from != t && to != t);
                listeners.retain(|&l| l != t);
                object_ops.retain(|op| op.thread != t);
            }
            Phase::Nested { children } => {
                children.iter_mut().for_each(|child| strip_thread(child, t));
                children.retain(|c| !c.group.is_empty());
            }
        }
    }
    let empty = |p: &Phase| matches!(p, Phase::Nested { children } if children.is_empty());
    action.phases.retain(|p| !empty(p));
    if let Some(raise) = &mut action.raise {
        raise.raisers.retain(|&(r, _)| r != t);
    }
    action.raise.take_if(|raise| raise.raisers.is_empty());
    action.verdicts.retain(|&(v, _)| v != t);
    action.abort_raises_eab.retain(|&m| m != t);
}

fn edit_plan(plan: &mut ScenarioPlan, edit: &Edit) -> Option<()> {
    let v = edit.value.as_ref();
    match (edit.kind, &edit.site, v) {
        (k, Site::Crash(i), _) => edit_list!(&mut plan.crashes, k, *i, v, Value::Crash(c) => *c),
        (k, Site::Fault(i), _) => {
            edit_list!(&mut plan.faults, k, *i, v, Value::Fault(f) => f.clone())
        }
        (kind, Site::Top(name), _) => {
            let i = plan.top.iter().position(|a| a.name == *name)?;
            match (kind, v) {
                (Kind::Add, None) => {
                    // Names stay globally unique, and so do the handler
                    // and exception identities derived from them.
                    let mut copy = plan.top[i].clone();
                    let fresh = (plan.top.len()..).map(|k| format!("a{k}"));
                    let fresh = fresh
                        .clone()
                        .find(|n| plan.top.iter().all(|a| a.name != *n))?;
                    rename_subtree(&mut copy, &fresh);
                    plan.top.push(copy);
                }
                // Crash schedules index the top-level sequence: never
                // silently retarget one.
                (Kind::Drop, None) if plan.crashes.iter().all(|c| c.top_action as usize != i) => {
                    for crash in &mut plan.crashes {
                        crash.top_action -= u32::from(crash.top_action as usize > i);
                    }
                    plan.top.remove(i);
                }
                (Kind::Set, Some(&Value::Int(seed))) => {
                    plan.top[i] = regenerate(plan, seed, &plan.top[i]);
                }
                _ => return None,
            }
            Some(())
        }
        (Kind::Set, Site::Child(name, p, c), Some(&Value::Int(seed))) => {
            let Phase::Nested { children } = find_action(plan, name)?.phases.get(*p)? else {
                return None;
            };
            let fresh = regenerate(plan, seed, children.get(*c)?);
            let action = find_action_mut(plan, name)?;
            let Phase::Nested { children } = &mut action.phases[*p] else {
                return None;
            };
            children[*c] = fresh;
            Some(())
        }
        (Kind::Drop, Site::Thread, None) => {
            // A crash or a pinned fault on the thread fails validation.
            let t = plan.threads.checked_sub(1).filter(|&t| t > 0)?;
            plan.top
                .iter_mut()
                .for_each(|action| strip_thread(action, t));
            plan.threads = t;
            Some(())
        }
        (Kind::Set, Site::Timing, Some(Value::Reals(r))) => {
            let &[t_mmax, t_reso, delta, t_abort] = r.as_slice() else {
                return None;
            };
            (plan.t_mmax, plan.t_reso, plan.delta, plan.t_abort) = (t_mmax, t_reso, delta, t_abort);
            Some(())
        }
        (Kind::Set, Site::Timeouts, Some(Value::Reals(r))) => {
            let &[signal, exit, resolution] = r.as_slice() else {
                return None;
            };
            (plan.signal_timeout, plan.exit_timeout) = (signal, exit);
            plan.resolution_timeout = resolution;
            Some(())
        }
        (kind, site, _) => {
            let action = find_action_mut(plan, site.operands().0?)?;
            edit_action(action, kind, site, v)
        }
    }
}

fn edit_action(a: &mut ActionPlan, kind: Kind, site: &Site, value: Option<&Value>) -> Option<()> {
    match (kind, site, value) {
        (Kind::Drop, Site::Raise(_), None) => a.raise.take().map(drop),
        (Kind::Add, Site::Raise(_), Some(Value::Raisers(raisers))) if a.raise.is_none() => {
            let raisers = raisers.clone();
            a.raise = Some(RaisePhase { raisers });
            Some(())
        }
        (kind, Site::Raiser(_, k), _) => {
            let raisers = &mut a.raise.as_mut()?.raisers;
            edit_list!(raisers, kind, *k, value, Value::Raisers(r) if r.len() == 1 => r[0])
        }
        (Kind::Drop, Site::Phase(_, p), None) => edit_list(&mut a.phases, kind, *p, None),
        (Kind::Set, Site::Phase(_, p), Some(&Value::Int(d))) => {
            let Phase::Compute { dur_ns, .. } = a.phases.get_mut(*p)? else {
                return None;
            };
            *dur_ns = d;
            Some(())
        }
        (Kind::Drop, Site::Child(_, p, c), None) => match a.phases.get_mut(*p)? {
            Phase::Nested { children } => edit_list(children, kind, *c, None),
            Phase::Compute { .. } => None,
        },
        (kind, Site::Op(_, p, k) | Site::Send(_, p, k) | Site::Listener(_, p, k), _) => {
            let Phase::Compute {
                sends,
                listeners,
                object_ops,
                ..
            } = a.phases.get_mut(*p)?
            else {
                return None;
            };
            match site {
                Site::Op(..) => {
                    edit_list!(object_ops, kind, *k, value, Value::Op(op) => op.clone())
                }
                Site::Send(..) => edit_list!(sends, kind, *k, value, Value::Send(a, b) => (*a, *b)),
                _ => {
                    // Listeners drain the inbox instead of computing: their
                    // scheduled object operations go with them.
                    if let Some(&Value::Int(t)) = value {
                        object_ops.retain(|op| u64::from(op.thread) != t);
                    }
                    edit_list!(listeners, kind, *k, value, Value::Int(t) => u32::try_from(*t).ok()?)
                }
            }
        }
        (Kind::Set, Site::Verdict(_, k), Some(Value::Verdict(v))) => {
            a.verdicts.get_mut(*k)?.1 = *v;
            Some(())
        }
        (kind, Site::Eab(_, k), _) => {
            let eab = &mut a.abort_raises_eab;
            edit_list!(eab, kind, *k, value, Value::Int(t) => u32::try_from(*t).ok()?)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// sites: where an edit can go.
// ---------------------------------------------------------------------------

/// The `(kind, site)` pairs of `plan` in the shrinker's coarse-to-fine
/// order — crashes, faults, top actions, the last thread, then each
/// action's raise, raisers, phases, children and object operations in
/// preorder, then sends, listeners, verdicts and Eab designations — so one
/// accepted coarse drop saves many fine ones. Listed drops always apply.
#[must_use]
pub fn sites(plan: &ScenarioPlan) -> Vec<(Kind, Site)> {
    use Kind::{Add, Drop, Set};
    let mut out = Sites(Vec::new());
    let (crashes, faults) = (plan.crashes.len(), plan.faults.len());
    let threads = plan.threads as usize;
    // A crash always leaves a survivor.
    out.list(&[Drop, Set], crashes, crashes + 1 < threads, Site::Crash);
    out.list(&[Drop, Set], faults, faults < 6, Site::Fault);
    for (i, top) in plan.top.iter().enumerate() {
        let hosts_crash = plan.crashes.iter().any(|c| c.top_action as usize == i);
        if plan.top.len() > 1 && !hosts_crash {
            out.0.push((Drop, Site::Top(top.name.clone())));
        }
        out.0.push((Set, Site::Top(top.name.clone())));
        if plan.top.len() < 4 {
            out.0.push((Add, Site::Top(top.name.clone())));
        }
    }
    let last = plan.threads.saturating_sub(1);
    let pinned = plan.faults.iter().any(|f| f.src == Some(last));
    if threads > 1 && plan.crashes.iter().all(|c| c.thread != last) && !pinned {
        out.0.push((Drop, Site::Thread));
    }
    out.0.extend([(Set, Site::Timing), (Set, Site::Timeouts)]);
    let actions = plan.actions();
    for a in &actions {
        let name = || a.name.clone();
        match &a.raise {
            None => out.0.push((Add, Site::Raise(name()))),
            Some(raise) => {
                out.0.push((Drop, Site::Raise(name())));
                let n = raise.raisers.len();
                let kinds: &[Kind] = if n > 1 { &[Drop, Set] } else { &[Set] };
                out.list(kinds, n, n < a.group.len(), |k| Site::Raiser(name(), k));
            }
        }
        for (p, phase) in a.phases.iter().enumerate() {
            out.0.push((Drop, Site::Phase(name(), p)));
            match phase {
                Phase::Nested { children } => {
                    let n = children.len();
                    let kinds: &[Kind] = if n > 1 { &[Drop, Set] } else { &[Set] };
                    out.list(kinds, n, false, |c| Site::Child(name(), p, c));
                }
                Phase::Compute { object_ops, .. } => {
                    out.0.push((Set, Site::Phase(name(), p)));
                    // Copies contend on the action's one object.
                    let (n, copyable) = (object_ops.len(), !object_ops.is_empty());
                    out.list(&[Drop, Set], n, copyable, |k| Site::Op(name(), p, k));
                }
            }
        }
    }
    for a in &actions {
        let (name, group) = (|| a.name.clone(), a.group.len());
        for (p, phase) in a.phases.iter().enumerate() {
            if let Phase::Compute {
                sends,
                listeners: l,
                ..
            } = phase
            {
                out.list(&[Drop], sends.len(), group >= 2, |k| {
                    Site::Send(name(), p, k)
                });
                out.list(&[Drop], l.len(), l.len() < group, |k| {
                    Site::Listener(name(), p, k)
                });
            }
        }
        out.list(&[Set], a.verdicts.len(), false, |k| {
            Site::Verdict(name(), k)
        });
        let (n, nested) = (a.abort_raises_eab.len(), a.depth > 0);
        out.list(&[Drop], n, nested && n < group, |k| Site::Eab(name(), k));
    }
    out.0
}

struct Sites(Vec<(Kind, Site)>);

impl Sites {
    /// Each of `kinds` at the first `n` positions a list's `site` names,
    /// then an `add` at its end when `addable`.
    fn list(&mut self, kinds: &[Kind], n: usize, addable: bool, site: impl Fn(usize) -> Site) {
        for i in 0..n {
            self.0.extend(kinds.iter().map(|&kind| (kind, site(i))));
        }
        if addable {
            self.0.push((Kind::Add, site(n)));
        }
    }
}

// ---------------------------------------------------------------------------
// draw: the fuzzer's mutation.
// ---------------------------------------------------------------------------

/// Raiser delays stay inside the generator's concurrency window, far below
/// the exit-timeout scale, so a delayed raise never reads as a crash.
const RAISE_WINDOW_NS: u64 = 200_000_000;

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// The threads of `pool` that are not `taken`.
fn others(pool: &[u32], taken: &[u32]) -> Vec<u32> {
    let mut out = pool.to_vec();
    out.retain(|t| !taken.contains(t));
    out
}

/// Draws one edit of `plan`: a (kind, target) class uniformly among the
/// classes [`sites`] lists a site for (`set timing` always has one), a
/// site of that class uniformly, then values inside the generator's
/// bounds. The drawn edit always [`apply`]s (`tests/fuzz_mutators.rs`).
#[must_use]
pub fn draw(plan: &ScenarioPlan, rng: &mut Rng) -> Edit {
    let sites = sites(plan);
    let class_of = |(kind, site): &(Kind, Site)| (*kind, site.target());
    let mut classes: Vec<(Kind, &str)> = sites.iter().map(class_of).collect();
    classes.sort_unstable();
    classes.dedup();
    let class = pick(rng, &classes);
    let of_class: Vec<&(Kind, Site)> = sites.iter().filter(|s| class_of(s) == class).collect();
    let (kind, site) = pick(rng, &of_class).clone();
    let value = draw_value(plan, kind, &site, rng);
    Edit { kind, site, value }
}

fn draw_value(plan: &ScenarioPlan, kind: Kind, site: &Site, rng: &mut Rng) -> Option<Value> {
    let threads: Vec<u32> = (0..plan.threads).collect();
    let crashed: Vec<u32> = plan.crashes.iter().map(|c| c.thread).collect();
    let top_action = |rng: &mut Rng| rng.below(plan.top.len() as u64) as u32;
    Some(match (kind, site) {
        (Kind::Drop, _) | (_, Site::Thread) | (Kind::Add, Site::Top(_)) => return None,
        (Kind::Add, Site::Crash(_)) => Value::Crash(CrashChoice {
            thread: pick(rng, &others(&threads, &crashed)),
            top_action: top_action(rng),
            delay_ns: rng.below(1_500_000_000),
            rejoin_delay_ns: rng.chance(0.5).then(|| rng.below(30_000_000_000)),
        }),
        (_, Site::Crash(k)) => {
            // One knob: the instant, the thread (no other crash's), the
            // top action, or the rejoin — half of the restarts race
            // detection, half land anywhere in the patience band.
            let mut crash = plan.crashes[*k];
            match rng.below(4) {
                0 => crash.delay_ns = crash_instant(plan, &crash, rng),
                1 => {
                    crash.thread = pick(rng, &others(&threads, &others(&crashed, &[crash.thread])))
                }
                2 => crash.top_action = top_action(rng),
                _ => {
                    crash.rejoin_delay_ns = match crash.rejoin_delay_ns {
                        None => Some(rng.below(30_000_000_000)),
                        Some(_) if rng.chance(0.5) => None,
                        Some(_) if rng.chance(0.5) => Some(rng.below(2_000_000_000)),
                        Some(_) => Some(rng.below(60_000_000_000)),
                    }
                }
            }
            Value::Crash(crash)
        }
        (Kind::Add, Site::Fault(_)) => {
            // At most one signalling crash: an unbounded, pinned loss rule.
            let unbounded = !plan.faults.iter().any(|f| f.count == u64::MAX) && rng.chance(0.2);
            let signalling = unbounded || rng.chance(0.5);
            Value::Fault(FaultChoice {
                class: CLASSES[usize::from(!signalling)].1,
                lose: unbounded || rng.chance(0.5),
                src: (unbounded || rng.chance(0.7)).then(|| pick(rng, &threads)),
                skip: rng.below(30),
                count: if unbounded { u64::MAX } else { rng.range(1, 3) },
            })
        }
        (_, Site::Fault(k)) => {
            // Unbounded rules stay pinned loss rules: skip and source only.
            let mut fault = plan.faults[*k].clone();
            let unbounded = fault.count == u64::MAX;
            match rng.below(if unbounded { 2 } else { 4 }) {
                0 => fault.skip = rng.below(30),
                1 => fault.src = (unbounded || rng.chance(0.7)).then(|| pick(rng, &threads)),
                2 => fault.count = rng.range(1, 3),
                _ => fault.lose = !fault.lose,
            }
            Value::Fault(fault)
        }
        (_, Site::Top(_) | Site::Child(..)) => Value::Int(rng.next_u64()),
        (_, Site::Timing) => {
            let mut t = [plan.t_mmax, plan.t_reso, plan.delta, plan.t_abort];
            match rng.below(4) as usize {
                0 => t[0] = rng.f64_range(0.05, 1.0),
                i => t[i] = rng.f64_range(0.0, 0.3),
            }
            Value::Reals(t.to_vec())
        }
        (_, Site::Timeouts) => {
            // The bounded exit and resolution waits keep at least the
            // generator's 10x separation above the signalling timeout, so
            // patience stretches or squeezes but never suspects a live peer.
            let signal = rng.f64_range(30.0, 90.0);
            let exit = signal * rng.f64_range(10.0, 40.0);
            Value::Reals(vec![signal, exit, signal * rng.f64_range(10.0, 40.0)])
        }
        (kind, site) => {
            let action = find_action(plan, site.operands().0?)?;
            draw_action_value(action, kind, site, rng)?
        }
    })
}

/// A crash instant: uniform, or snapped onto a compute-phase boundary of
/// the crash's action ± a small jitter — the round transitions uniform
/// sampling essentially never lands on.
fn crash_instant(plan: &ScenarioPlan, crash: &CrashChoice, rng: &mut Rng) -> u64 {
    if rng.chance(0.5) {
        return rng.below(2_000_000_000);
    }
    let mut boundaries = vec![0u64];
    for phase in &plan.top[crash.top_action as usize].phases {
        if let Phase::Compute { dur_ns, .. } = phase {
            boundaries.push(boundaries[boundaries.len() - 1] + dur_ns);
        }
    }
    let (boundary, jitter) = (pick(rng, &boundaries), rng.below(2_000_000));
    if rng.chance(0.5) {
        boundary.saturating_sub(jitter)
    } else {
        boundary + jitter
    }
}

fn draw_action_value(a: &ActionPlan, kind: Kind, site: &Site, rng: &mut Rng) -> Option<Value> {
    let raisers = a.raise.as_ref().map_or(&[][..], |r| &r.raisers);
    let free = others(&a.group, &raisers.iter().map(|r| r.0).collect::<Vec<_>>());
    let delay = |rng: &mut Rng| rng.below(RAISE_WINDOW_NS);
    Some(match (kind, site) {
        (_, Site::Raise(_)) => {
            let first = pick(rng, &a.group);
            let mut raisers = vec![(first, delay(rng))];
            let pool = others(&a.group, &[first]);
            if !pool.is_empty() && rng.chance(0.4) {
                raisers.push((pick(rng, &pool), delay(rng)));
            }
            Value::Raisers(raisers)
        }
        (Kind::Add, Site::Raiser(..)) => Value::Raisers(vec![(pick(rng, &free), delay(rng))]),
        (_, Site::Raiser(_, k)) => {
            // Shift the raise in time, or hand it to a non-raiser.
            let (thread, at) = a.raise.as_ref()?.raisers[*k];
            let handed = (!free.is_empty() && rng.chance(0.5)).then(|| (pick(rng, &free), at));
            Value::Raisers(vec![handed.unwrap_or_else(|| (thread, delay(rng)))])
        }
        (_, Site::Verdict(..)) => {
            // Recovered 40 %, undo 25 %, signal 20 %, fail 15 %.
            let roll = rng.unit_f64();
            let at = [0.40, 0.65, 0.85].iter().filter(|&&c| roll >= c).count();
            Value::Verdict(VERDICTS[at].0)
        }
        (_, Site::Eab(..)) => Value::Int(pick(rng, &others(&a.group, &a.abort_raises_eab)).into()),
        // The rest lie in a compute phase.
        (kind, site) => {
            let Phase::Compute {
                dur_ns,
                listeners,
                object_ops: ops,
                ..
            } = a.phases.get(*site.operands().1.first()?)?
            else {
                return None;
            };
            let speakers = others(&a.group, listeners);
            match (kind, site) {
                // The generator's band, never below a scheduled operation.
                (_, Site::Phase(..)) => {
                    let floor = ops.iter().map(|op| op.delay_ns + 1).max().unwrap_or(0);
                    Value::Int(((rng.f64_range(0.02, 0.4) * 1e9) as u64).max(floor))
                }
                (Kind::Add, Site::Op(..)) => Value::Op(ObjectOp {
                    thread: pick(rng, &speakers),
                    delay_ns: rng.below(*dur_ns),
                    object: ops[0].object,
                    update: rng.chance(0.7),
                }),
                (_, Site::Op(_, _, k)) => {
                    let mut op = ops[*k].clone();
                    if rng.chance(0.5) {
                        op.delay_ns = rng.below(*dur_ns);
                    } else {
                        op.update = !op.update;
                    }
                    Value::Op(op)
                }
                (_, Site::Send(..)) => {
                    let from = pick(rng, &a.group);
                    Value::Send(from, pick(rng, &others(&a.group, &[from])))
                }
                _ => Value::Int(pick(rng, &speakers).into()),
            }
        }
    })
}

// ---------------------------------------------------------------------------
// shrink: greedy delta debugging over the drop sites.
// ---------------------------------------------------------------------------

/// The default violation predicate: execute the plan and check every run
/// oracle (a sweep's verdicts minus the replay check — shrinking
/// re-executes candidates constantly, and replay would double every probe
/// for no extra signal).
#[must_use]
pub fn plan_violates(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> bool {
    let artifacts = execute_in(plan, arena);
    let violating = !check_run(&artifacts).is_empty();
    arena.recycle_trace(artifacts.trace);
    violating
}

/// Outcome of one [`shrink`].
#[derive(Debug)]
pub struct Shrunk {
    /// The accepted drops, in order: appended to the source recipe, they
    /// rebuild [`Shrunk::plan`].
    pub edits: Vec<Edit>,
    /// The 1-minimal still-violating plan.
    pub plan: ScenarioPlan,
    /// Candidate executions performed (the full plan's included).
    pub attempts: u64,
}

/// Shrinks `plan` — chaos schedule and workload alike — to a 1-minimal
/// still-violating plan: try the `drop` sites in [`sites`]' order, accept
/// the first that keeps the violation, restart, stop when none does.
/// `None` when the full plan does not violate. Deterministic for a
/// deterministic predicate.
#[must_use]
pub fn shrink(
    plan: &ScenarioPlan,
    mut still_violates: impl FnMut(&ScenarioPlan) -> bool,
) -> Option<Shrunk> {
    if !still_violates(plan) {
        return None;
    }
    let (mut edits, mut plan, mut attempts) = (Vec::new(), plan.clone(), 1);
    'restart: loop {
        for (kind, site) in sites(&plan) {
            let edit = Edit::drop(site);
            let Some(candidate) = (kind == Kind::Drop).then(|| apply(&plan, &edit)).flatten()
            else {
                continue;
            };
            attempts += 1;
            if still_violates(&candidate) {
                plan = candidate;
                edits.push(edit);
                continue 'restart;
            }
        }
        return Some(Shrunk {
            edits,
            plan,
            attempts,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed whose generated plan has at least 2 fault rules and a crash.
    fn rich_plan() -> ScenarioPlan {
        let cfg = ScenarioConfig::default();
        let mut plans = (0..4000).map(|seed| ScenarioPlan::generate(seed, &cfg));
        let rich = |p: &ScenarioPlan| p.faults.len() >= 2 && !p.crashes.is_empty();
        plans.find(rich).expect("a rich seed")
    }

    #[test]
    fn bisection_minimises_against_a_synthetic_predicate() {
        let plan = rich_plan();
        // The "bug" needs exactly fault rule 1 and a crash.
        let needs = |p: &ScenarioPlan| !p.crashes.is_empty() && p.faults.contains(&plan.faults[1]);
        let shrunk = shrink(&plan, needs).expect("full plan violates");
        assert_eq!(shrunk.plan.faults, vec![plan.faults[1].clone()]);
        assert_eq!(shrunk.plan.crashes.len(), 1);
        // 1-minimality: dropping either remaining element stops it.
        for edit in [Edit::drop(Site::Fault(0)), Edit::drop(Site::Crash(0))] {
            let without = apply(&shrunk.plan, &edit).expect("the element is there");
            assert!(!needs(&without), "{edit} kept the violation");
        }
    }

    #[test]
    fn bisection_reports_nothing_for_a_passing_plan() {
        assert!(shrink(&rich_plan(), |_| false).is_none());
    }

    #[test]
    fn bisection_can_drop_everything_for_schedule_independent_bugs() {
        let shrunk = shrink(&rich_plan(), |_| true).expect("always violating");
        let min = &shrunk.plan;
        assert!(min.faults.is_empty() && min.crashes.is_empty());
        assert_eq!((min.top.len(), min.threads), (1, 1));
    }

    #[test]
    fn default_predicate_accepts_clean_seeds() {
        let plan = ScenarioPlan::generate(3, &ScenarioConfig::default());
        assert!(
            !plan_violates(&plan, &mut ExecutionArena::new()),
            "seed 3 is clean"
        );
    }

    /// The synthetic "bug": some top-level action raises via thread 0,
    /// and at least 2 threads participate.
    fn zero_raise_bug(p: &ScenarioPlan) -> bool {
        let zero = |a: &ActionPlan| a.raise.iter().any(|r| r.raisers.iter().any(|r| r.0 == 0));
        p.threads >= 2 && p.top.iter().any(zero)
    }

    #[test]
    fn workload_bisection_reaches_the_known_minimal_plan() {
        let cfg = ScenarioConfig::default();
        let mut plans = (0..4000).map(|seed| ScenarioPlan::generate(seed, &cfg));
        let rich = |p: &ScenarioPlan| p.threads >= 3 && p.actions().len() >= 3;
        let plan = plans.find(|p| zero_raise_bug(p) && rich(p));
        let plan = plan.expect("a raising seed");
        let shrunk = shrink(&plan, zero_raise_bug).expect("full plan violates");
        let min = &shrunk.plan;
        // One top-level action, two threads, no phases, no chaos schedule,
        // and a raise that is exactly thread 0.
        assert_eq!((min.top.len(), min.threads), (1, 2), "{}", min.describe());
        assert!(min.crashes.is_empty() && min.faults.is_empty());
        assert!(min.top[0].phases.is_empty(), "{}", min.describe());
        let raise = min.top[0].raise.as_ref().expect("raise survives");
        assert_eq!(raise.raisers.iter().map(|r| r.0).collect::<Vec<_>>(), [0]);
        // 1-minimality: every drop site breaks the predicate.
        for (_, site) in sites(min).into_iter().filter(|s| s.0 == Kind::Drop) {
            let candidate = apply(min, &Edit::drop(site)).expect("drop sites apply");
            assert!(!zero_raise_bug(&candidate));
        }
        // The accepted drops rebuild the minimal plan from the seed.
        let mut recipe = Recipe::base(plan.seed);
        recipe.edits = shrunk.edits;
        let rebuilt = recipe.materialize(&cfg).expect("drops replay");
        assert_eq!(format!("{rebuilt:?}"), format!("{min:?}"));
    }

    /// Every shrink candidate — a `drop` at any site of any generated
    /// plan — applies, so it ends inside the validity envelope.
    #[test]
    fn workload_reductions_preserve_plan_validity() {
        let cfg = ScenarioConfig::default();
        for seed in 0..200 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            for (_, site) in sites(&plan).into_iter().filter(|s| s.0 == Kind::Drop) {
                let edit = Edit::drop(site);
                let shrunk = apply(&plan, &edit);
                let shrunk =
                    shrunk.unwrap_or_else(|| panic!("seed {seed}: `{edit}` does not apply"));
                validate_plan(&shrunk).unwrap_or_else(|e| panic!("seed {seed}, `{edit}`: {e}"));
            }
        }
    }

    #[test]
    fn edits_round_trip_through_text() {
        for line in [
            "add crash 0 2 1 1200000 -",
            "set fault 0 toBeSignalled lose 1 4 18446744073709551615",
            "add fault 2 App corrupt - 3 1",
            "add top a0",
            "drop thread",
            "add raise a0.1 0:5 2:1999",
            "set child a0 1 0 42",
            "add op a0.0 0 1 2 5000 1 update",
            "set verdict a0 2 undo",
            "set timing 0.1 0.30000000000000004 0 0.2999999999999999",
        ] {
            let edit: Edit = line.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(edit.to_string(), line);
        }
        let reals = "set timing 0.1 0.30000000000000004 0 0.2999999999999999";
        let reals = reals.parse::<Edit>().map(|edit| edit.value);
        assert_eq!(
            reals,
            Ok(Some(Value::Reals(vec![
                0.1,
                0.1 + 0.2,
                0.0,
                0.2999999999999999
            ])))
        );
        for bad in [
            "drop everything",
            "drop fault x",
            "drop crash",
            "drop crash 0 1",
            "set verdict a0 0 maybe",
            "add fault 0 Resolve lose - 0 1",
            "mutate 0x1",
        ] {
            assert!(bad.parse::<Edit>().is_err(), "{bad}");
        }
    }

    #[test]
    fn recipe_round_trips_and_materializes_deterministically() {
        let cfg = ScenarioConfig::default();
        let (mut rng, mut recipe) = (Rng::new(7), Recipe::base(42));
        let mut plan = ScenarioPlan::generate(42, &cfg);
        for _ in 0..3 {
            let edit = draw(&plan, &mut rng);
            plan = apply(&plan, &edit).expect("drawn edits apply");
            recipe.edits.push(edit);
        }
        assert_eq!(recipe.to_string().parse::<Recipe>(), Ok(recipe.clone()));
        assert!(
            "add top a0".parse::<Recipe>().is_err(),
            "seed line required"
        );
        let rebuilt = recipe.materialize(&cfg).expect("recipe applies");
        assert_eq!(format!("{rebuilt:?}"), format!("{plan:?}"));
        assert_eq!(rebuilt.seed, 42, "edits keep the base seed");
        assert!(recipe.entry_name().starts_with("42-r"));
        assert_eq!(Recipe::base(9).entry_name(), "9");
    }
}
