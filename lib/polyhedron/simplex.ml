open Polybase

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * (string -> Q.t)

let c_solves = Obs.Counters.create "simplex.solves" ~doc:"LPs solved (memo hits excluded)"
let c_pivots = Obs.Counters.create "simplex.pivots" ~doc:"tableau pivot operations"
let c_degenerate = Obs.Counters.create "simplex.degenerate_pivots" ~doc:"pivots that left the objective unchanged"
let c_dual_pivots = Obs.Counters.create "simplex.dual_pivots" ~doc:"dual-simplex re-optimization pivots"
let c_infeasible = Obs.Counters.create "simplex.infeasible" ~doc:"LPs proven infeasible"
let c_artificials = Obs.Counters.create "simplex.artificials" ~doc:"artificial columns created by phase 1"
let c_screened =
  Obs.Counters.create "simplex.screened_infeasible"
    ~doc:"ILP roots the slack-started phase 1 proved infeasible"
let c_memo_hits =
  Obs.Counters.create "simplex.memo_hits" ~doc:"one-shot LPs answered from the solver memo"

(* The tableau keeps every number exact.  Layout:
   - columns [0 .. ncols-1] are decision columns (x+ / x- pairs per source
     variable, then slacks; artificials exist only during phase 1 and are
     dropped before the tableau is handed out);
   - rows [0 .. nrows-1] are constraint rows, each sparse and immutable:
     the sorted indices of its nonzero columns, their values, and the
     right-hand side held apart.  A pivot builds new rows only for the
     rows with a nonzero in the pivot column and keeps every other row, so
     a copy ({!with_le}) copies the row array and shares each row it does
     not change with its parent;
   - [obj] is the dense reduced objective row: obj.(j) is the reduced cost
     of column [j], obj.(ncols) its right-hand side, and the current
     objective value is [Q.neg obj.(ncols)] plus the installed objective's
     constant [obj_const]. *)

(* Entering rule and starting basis.  The Dantzig path (most negative
   reduced cost) serves the LP-heavy layers — emptiness tests, bound
   queries, sign checks — whose callers only consume the optimal value or
   a feasibility verdict, both unique, so the choice of optimal vertex is
   free there.  Its phase 1 also starts from the slack basis: a [Ge] row
   the origin satisfies (constant >= 0) starts on its own slack, and only
   [Eq] rows and violated [Ge] rows get an artificial column.

   The tableau path underneath {!Ilp} stays on Bland with an artificial on
   every row: its vertex reaches the scheduler, and the historical Bland
   vertices are part of the tested schedule outputs (a slack-started Bland
   phase 1 moved a ResNet101 isl schedule, its Table II row going from
   0.97 to 1.00 ms).  It is screened instead: {!Tableau.of_constraints}
   first runs the cheap slack-started Dantzig phase 1 and stops there when
   the system is infeasible.  Over exact rationals feasibility does not
   depend on the starting basis or the pivot rule, so the screen only
   decides sooner what the Bland phase 1 would decide; it never changes a
   verdict, and feasible systems get the unchanged Bland build. *)
type rule = Dantzig | Bland

type row = { idx : int array; vals : Q.t array; rhs : Q.t }

type tab = {
  mutable rows : row array; (* owned by this tableau; the rows are shared *)
  mutable basis : int array; (* basis.(r) = basic column of row r *)
  mutable obj : Q.t array;
  mutable ncols : int;
  mutable obj_const : Q.t;
  var_cols : (string, int) Hashtbl.t; (* variable -> its x+ column (x- is +1) *)
  rule : rule;
  mutable degen : int; (* consecutive degenerate pivots *)
}

(* The entry of [row] in column [c]. *)
let coef row c =
  let rec go lo hi =
    if lo >= hi then Q.zero
    else begin
      let m = (lo + hi) lsr 1 in
      let j = row.idx.(m) in
      if j = c then row.vals.(m) else if j < c then go (m + 1) hi else go lo m
    end
  in
  go 0 (Array.length row.idx)

(* The sparse row of the dense entries [d] (zeros dropped) and [rhs]. *)
let of_dense d rhs =
  let idx = ref [] in
  for j = Array.length d - 1 downto 0 do
    if not (Q.is_zero d.(j)) then idx := j :: !idx
  done;
  let idx = Array.of_list !idx in
  { idx; vals = Array.map (fun j -> d.(j)) idx; rhs }

(* [row - f * p], merged over the two index lists; entries that cancel
   are dropped. *)
let sub_scaled row f p =
  let la = Array.length row.idx and lb = Array.length p.idx in
  let idx = Array.make (la + lb) 0 and vals = Array.make (la + lb) Q.zero in
  let rec go a b n =
    if a = la && b = lb then n
    else begin
      let ja = if a < la then row.idx.(a) else max_int
      and jb = if b < lb then p.idx.(b) else max_int in
      let v =
        if ja < jb then row.vals.(a)
        else if jb < ja then Q.neg (Q.mul f p.vals.(b))
        else Q.sub row.vals.(a) (Q.mul f p.vals.(b))
      in
      let n =
        if Q.is_zero v then n
        else begin
          idx.(n) <- min ja jb;
          vals.(n) <- v;
          n + 1
        end
      in
      go (if ja <= jb then a + 1 else a) (if jb <= ja then b + 1 else b) n
    end
  in
  let n = go 0 0 0 in
  { idx = Array.sub idx 0 n; vals = Array.sub vals 0 n;
    rhs = Q.sub row.rhs (Q.mul f p.rhs) }

(* obj <- obj - f * row, over the row's nonzeros and its right-hand side. *)
let sub_from_obj t f row =
  if not (Q.is_zero f) then begin
    Array.iteri (fun k j -> t.obj.(j) <- Q.sub t.obj.(j) (Q.mul f row.vals.(k))) row.idx;
    t.obj.(t.ncols) <- Q.sub t.obj.(t.ncols) (Q.mul f row.rhs)
  end

(* After this many consecutive degenerate pivots the entering rule drops
   from Dantzig to Bland until the objective moves again, which restores
   the anti-cycling guarantee without paying Bland's pivot counts on the
   non-degenerate majority. *)
let degen_limit t = 16 + (2 * Array.length t.rows)

let use_bland t =
  match t.rule with Bland -> true | Dantzig -> t.degen > degen_limit t

let pivot t r c =
  Obs.Counters.incr c_pivots;
  let before = t.obj.(t.ncols) in
  let p = t.rows.(r) in
  let inv = Q.inv (coef p c) in
  let p = { p with vals = Array.map (Q.mul inv) p.vals; rhs = Q.mul inv p.rhs } in
  t.rows.(r) <- p;
  Array.iteri
    (fun i row ->
      if i <> r then begin
        let f = coef row c in
        if not (Q.is_zero f) then t.rows.(i) <- sub_scaled row f p
      end)
    t.rows;
  sub_from_obj t t.obj.(c) p;
  t.basis.(r) <- c;
  if Q.equal before t.obj.(t.ncols) then begin
    Obs.Counters.incr c_degenerate;
    t.degen <- t.degen + 1
  end
  else t.degen <- 0

(* Entering column: Dantzig (most negative reduced cost, ties by lowest
   index) normally; lowest-index Bland during a degeneracy streak. *)
let find_entering t =
  if use_bland t then begin
    let rec go j =
      if j >= t.ncols then None
      else if Q.sign t.obj.(j) < 0 then Some j
      else go (j + 1)
    in
    go 0
  end
  else begin
    let best = ref (-1) in
    for j = t.ncols - 1 downto 0 do
      if Q.sign t.obj.(j) < 0
         && (!best = -1 || Q.compare t.obj.(j) t.obj.(!best) <= 0)
      then best := j
    done;
    if !best = -1 then None else Some !best
  end

let find_leaving t c =
  let best = ref None in
  Array.iteri
    (fun r row ->
      let a = coef row c in
      if Q.sign a > 0 then begin
        let ratio = Q.div row.rhs a in
        match !best with
        | None -> best := Some (r, ratio)
        | Some (br, bratio) ->
          let cmp = Q.compare ratio bratio in
          if cmp < 0 || (cmp = 0 && t.basis.(r) < t.basis.(br)) then
            best := Some (r, ratio)
      end)
    t.rows;
  Option.map fst !best

type phase_outcome = Opt | Unb

let run_simplex t =
  let rec loop () =
    match find_entering t with
    | None -> Opt
    | Some c -> (
      match find_leaving t c with
      | None -> Unb
      | Some r ->
        pivot t r c;
        loop ())
  in
  loop ()

let objective_value t = Q.add (Q.neg t.obj.(t.ncols)) t.obj_const

(* Reduce the objective row against the current basis so that reduced costs
   of basic columns are zero. *)
let reduce_objective t =
  Array.iteri (fun r b -> sub_from_obj t t.obj.(b) t.rows.(r)) t.basis

(* ------------------------------------------------------------------ *)
(* Construction: phase 1 over the constraint list, then compaction      *)
(* ------------------------------------------------------------------ *)

exception Contradictory

(* Phase 1 over [constraints]; [None] when they are infeasible.  Every
   [Ge] row gets a slack column.  Under [Dantzig] a [Ge] row with constant
   >= 0 is negated so its slack has coefficient +1 and starts basic; under
   [Bland], and for [Eq] rows and [Ge] rows the origin violates, the row
   starts on an artificial column.  Phase 1 minimizes the sum of the
   artificials, which sit at the top of the column range and are dropped
   afterwards. *)
let build constraints ~rule ~extra_exprs =
  (* Filter out constraints without variables first. *)
  let constraints =
    List.filter
      (fun c ->
        match Constr.triviality c with
        | Some true -> false
        | Some false -> raise Contradictory
        | None -> true)
      constraints
  in
  let var_cols = Hashtbl.create 16 in
  let note_var x =
    if not (Hashtbl.mem var_cols x) then
      Hashtbl.add var_cols x (2 * Hashtbl.length var_cols)
  in
  List.iter (fun c -> List.iter note_var (Constr.vars c)) constraints;
  List.iter (fun e -> List.iter note_var (Linexpr.vars e)) extra_exprs;
  let nvars = Hashtbl.length var_cols in
  let slack_started c =
    rule = Dantzig && c.Constr.kind = Constr.Ge
    && Q.sign (Linexpr.constant c.Constr.expr) >= 0
  in
  let nslack = List.length (List.filter (fun c -> c.Constr.kind = Constr.Ge) constraints) in
  let nart = List.length (List.filter (fun c -> not (slack_started c)) constraints) in
  Obs.Counters.add c_artificials nart;
  let nrows = List.length constraints in
  let ncols = (2 * nvars) + nslack + nart in
  let rows = Array.make nrows { idx = [||]; vals = [||]; rhs = Q.zero } in
  let basis = Array.make nrows 0 in
  let col_pos x = Hashtbl.find var_cols x in
  let slack_base = 2 * nvars in
  let art_base = slack_base + nslack in
  let slack_idx = ref 0 and art_idx = ref 0 in
  List.iteri
    (fun r c ->
      (* expr + c0 {>=,=} 0 becomes expr_vars {>=,=} -c0.  A slack-started
         row is negated, -expr_vars + s = c0 >= 0, so its slack is a
         feasible basic column; any other row is signed so that its
         artificial starts at a nonnegative value. *)
      let ge = c.Constr.kind = Constr.Ge and started = slack_started c in
      let rhs = Q.neg (Linexpr.constant c.Constr.expr) in
      let sign = if started || Q.sign rhs < 0 then Q.minus_one else Q.one in
      let slack = slack_base + !slack_idx and art = art_base + !art_idx in
      if ge then incr slack_idx;
      if started then basis.(r) <- slack
      else begin
        basis.(r) <- art;
        incr art_idx
      end;
      let terms =
        Linexpr.fold_terms
          (fun x q acc ->
            let cp = col_pos x and q = Q.mul sign q in
            (cp, q) :: (cp + 1, Q.neg q) :: acc)
          c.Constr.expr
          ((if ge then [ (slack, Q.neg sign) ] else [])
           @ if started then [] else [ (art, Q.one) ])
      in
      let terms = List.sort (fun (i, _) (j, _) -> Int.compare i j) terms in
      rows.(r) <-
        { idx = Array.of_list (List.map fst terms);
          vals = Array.of_list (List.map snd terms); rhs = Q.mul sign rhs })
    constraints;
  let t =
    { rows; basis; obj = Array.make (ncols + 1) Q.zero; ncols;
      obj_const = Q.zero; var_cols; rule; degen = 0 }
  in
  (* Phase 1: minimize the sum of artificials. *)
  for j = art_base to ncols - 1 do
    t.obj.(j) <- Q.one
  done;
  reduce_objective t;
  (match run_simplex t with
   | Unb -> assert false (* phase-1 objective is bounded below by 0 *)
   | Opt -> ());
  if Q.sign (objective_value t) > 0 then None
  else begin
    (* Drive remaining basic artificials out of the basis: pivot on the
       row's lowest nonzero column, or drop the row when only artificials
       are left in it. *)
    let keep = Array.make (Array.length t.rows) true in
    Array.iteri
      (fun r b ->
        if b >= art_base then begin
          let row = t.rows.(r) in
          if Array.length row.idx > 0 && row.idx.(0) < art_base then
            pivot t r row.idx.(0)
          else keep.(r) <- false
        end)
      t.basis;
    (* Drop redundant rows, then the artificial columns: they sit at the
       top of the column range, so each surviving row keeps the prefix of
       its sorted indices below [art_base]. *)
    let kept_rows = ref [] and kept_basis = ref [] in
    Array.iteri
      (fun r row ->
        if keep.(r) then begin
          let n = ref 0 in
          while !n < Array.length row.idx && row.idx.(!n) < art_base do incr n done;
          kept_rows :=
            { row with idx = Array.sub row.idx 0 !n; vals = Array.sub row.vals 0 !n }
            :: !kept_rows;
          kept_basis := t.basis.(r) :: !kept_basis
        end)
      t.rows;
    t.rows <- Array.of_list (List.rev !kept_rows);
    t.basis <- Array.of_list (List.rev !kept_basis);
    t.ncols <- art_base;
    t.obj <- Array.make (art_base + 1) Q.zero;
    t.degen <- 0;
    Some t
  end

(* ------------------------------------------------------------------ *)
(* Objective installation and solution extraction                       *)
(* ------------------------------------------------------------------ *)

let set_objective t objective =
  Array.fill t.obj 0 (t.ncols + 1) Q.zero;
  t.obj_const <- Linexpr.constant objective;
  (try
     Linexpr.fold_terms
       (fun x q () ->
         let cp = Hashtbl.find t.var_cols x in
         t.obj.(cp) <- Q.add t.obj.(cp) q;
         t.obj.(cp + 1) <- Q.sub t.obj.(cp + 1) q)
       objective ()
   with Not_found ->
     invalid_arg "Simplex.Tableau.set_objective: unknown variable");
  reduce_objective t;
  t.degen <- 0;
  match run_simplex t with Opt -> `Optimal | Unb -> `Unbounded

let assignment t =
  let value = Array.make t.ncols Q.zero in
  Array.iteri (fun r b -> value.(b) <- t.rows.(r).rhs) t.basis;
  let env = Hashtbl.create (Hashtbl.length t.var_cols) in
  Hashtbl.iter
    (fun x cp -> Hashtbl.replace env x (Q.sub value.(cp) value.(cp + 1)))
    t.var_cols;
  fun x -> Option.value ~default:Q.zero (Hashtbl.find_opt env x)

(* ------------------------------------------------------------------ *)
(* Incremental rows + dual-simplex re-optimization                      *)
(* ------------------------------------------------------------------ *)

(* Entering column for a dual pivot on row [r]: minimum ratio
   obj.(j) / -row.(j) over columns with a negative row entry, ties by
   lowest index (the dual Bland tie-break, which terminates). *)
let dual_entering t r =
  let row = t.rows.(r) in
  let best = ref None in
  for k = Array.length row.idx - 1 downto 0 do
    let v = row.vals.(k) in
    if Q.sign v < 0 then begin
      let j = row.idx.(k) in
      let ratio = Q.div t.obj.(j) (Q.neg v) in
      match !best with
      | Some (_, bratio) when Q.compare ratio bratio > 0 -> ()
      | _ -> best := Some (j, ratio)
    end
  done;
  Option.map fst !best

let dual_reoptimize t =
  let rec loop () =
    (* Leaving row: most negative RHS, lowest index during a degeneracy
       streak (plain Bland for the dual). *)
    let bland = use_bland t in
    let best = ref (-1) in
    (Array.iteri (fun r row ->
         if Q.sign row.rhs < 0 then
           if !best = -1 then best := r
           else if (not bland) && Q.compare row.rhs t.rows.(!best).rhs < 0
           then best := r))
      t.rows;
    if !best = -1 then `Feasible
    else
      match dual_entering t !best with
      | None -> `Infeasible
      | Some c ->
        Obs.Counters.incr c_dual_pivots;
        pivot t !best c;
        loop ()
  in
  loop ()

(* Extend [t] with the row [e <= 0] into a fresh tableau, then restore
   primal feasibility with the dual simplex.  The fresh tableau gets its
   own row array, basis and objective row but shares every row with [t],
   and a pivot replaces rows rather than writing into them, so [t] itself
   is untouched and branch-and-bound can keep using it.  The new slack
   column keeps the objective row dually feasible by construction. *)
let with_le t e =
  let ncols = t.ncols + 1 in
  (* The new row, dense over the old columns plus its slack. *)
  let d = Array.make ncols Q.zero in
  (try
     Linexpr.fold_terms
       (fun x q () ->
         let cp = Hashtbl.find t.var_cols x in
         d.(cp) <- Q.add d.(cp) q;
         d.(cp + 1) <- Q.sub d.(cp + 1) q)
       e ()
   with Not_found -> invalid_arg "Simplex.Tableau.with_le: unknown variable");
  d.(t.ncols) <- Q.one; (* fresh slack: e + s = -const, s >= 0 *)
  let rhs = ref (Q.neg (Linexpr.constant e)) in
  (* Express the new row over the current basis. *)
  Array.iteri
    (fun r b ->
      let f = d.(b) in
      if not (Q.is_zero f) then begin
        let row = t.rows.(r) in
        Array.iteri (fun k j -> d.(j) <- Q.sub d.(j) (Q.mul f row.vals.(k))) row.idx;
        rhs := Q.sub !rhs (Q.mul f row.rhs)
      end)
    t.basis;
  let obj = Array.make (ncols + 1) Q.zero in
  Array.blit t.obj 0 obj 0 t.ncols;
  obj.(ncols) <- t.obj.(t.ncols);
  let t' =
    { rows = Array.append t.rows [| of_dense d !rhs |];
      basis = Array.append t.basis [| t.ncols |]; obj; ncols;
      obj_const = t.obj_const; var_cols = t.var_cols; rule = t.rule; degen = 0 }
  in
  match dual_reoptimize t' with `Feasible -> Some t' | `Infeasible -> None

let with_ge t e = with_le t (Linexpr.neg e)

(* ------------------------------------------------------------------ *)
(* One-shot interface                                                   *)
(* ------------------------------------------------------------------ *)

let minimize_impl constraints objective =
  match build constraints ~rule:Dantzig ~extra_exprs:[ objective ] with
  | exception Contradictory -> Infeasible
  | None -> Infeasible
  | Some t -> (
    match set_objective t objective with
    | `Unbounded -> Unbounded
    | `Optimal -> Optimal (objective_value t, assignment t))

(* Keyed by the ordered constraints and the objective: row order decides
   the vertex, so the assignment too. *)
module Memo = Solver_memo.Make (struct
  type key = Constr.t list * Linexpr.t
  type value = result

  let hash (cs, objective) = Solver_memo.hash_constrs (Linexpr.hash objective) cs

  let equal (cs, objective) (cs', objective') =
    (objective == objective' || Linexpr.equal objective objective')
    && Solver_memo.equal_constrs cs cs'

  let hits = c_memo_hits
end)

let minimize constraints objective =
  Memo.find (constraints, objective) (fun () ->
      Obs.Counters.incr c_solves;
      let r = minimize_impl constraints objective in
      (match r with Infeasible -> Obs.Counters.incr c_infeasible | _ -> ());
      r)

let maximize constraints objective =
  match minimize constraints (Linexpr.neg objective) with
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded
  | Optimal (v, a) -> Optimal (Q.neg v, a)

let feasible_point constraints =
  match minimize constraints Linexpr.zero with
  | Infeasible -> None
  | Unbounded -> None (* cannot happen with a constant objective *)
  | Optimal (_, a) -> Some a

let is_feasible constraints = Option.is_some (feasible_point constraints)

(* ------------------------------------------------------------------ *)
(* The incremental face, for branch-and-bound                           *)
(* ------------------------------------------------------------------ *)

module Tableau = struct
  type t = tab

  let of_constraints ?(extra_exprs = []) constraints =
    Obs.Counters.incr c_solves;
    let infeasible () =
      Obs.Counters.incr c_infeasible;
      None
    in
    match build constraints ~rule:Dantzig ~extra_exprs:[] with
    | exception Contradictory -> infeasible ()
    | None ->
      Obs.Counters.incr c_screened;
      infeasible ()
    | Some _ -> build constraints ~rule:Bland ~extra_exprs

  let set_objective = set_objective
  let value = objective_value
  let assignment = assignment
  let with_le = with_le
  let with_ge = with_ge
end
