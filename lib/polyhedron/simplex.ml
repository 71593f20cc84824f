open Polybase

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * (string -> Q.t)

let c_solves = Obs.Counters.create "simplex.solves" ~doc:"LP minimizations attempted"
let c_pivots = Obs.Counters.create "simplex.pivots" ~doc:"tableau pivot operations"
let c_degenerate = Obs.Counters.create "simplex.degenerate_pivots" ~doc:"pivots that left the objective unchanged"
let c_dual_pivots = Obs.Counters.create "simplex.dual_pivots" ~doc:"dual-simplex re-optimization pivots"
let c_infeasible = Obs.Counters.create "simplex.infeasible" ~doc:"LPs proven infeasible"
let c_artificials = Obs.Counters.create "simplex.artificials" ~doc:"artificial columns created by phase 1"
let c_screened =
  Obs.Counters.create "simplex.screened_infeasible"
    ~doc:"ILP roots the slack-started phase 1 proved infeasible"

(* The tableau keeps every number exact.  Layout:
   - columns [0 .. ncols-1] are decision columns (x+ / x- pairs per source
     variable, then slacks; artificials exist only during phase 1 and are
     compacted away before the tableau is handed out), column [ncols] is
     the RHS;
   - rows [0 .. nrows-1] are constraint rows;
   - [obj] is the reduced objective row: obj.(j) is the reduced cost of
     column [j] and the current objective value is [Q.neg obj.(ncols)]
     plus the installed objective's constant [obj_const]. *)

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

type tab = {
  mutable rows : Q.t array array;
  mutable basis : int array; (* basis.(r) = basic column of row r *)
  mutable obj : Q.t array;
  mutable ncols : int;
  mutable obj_const : Q.t;
  var_cols : (string, int) Hashtbl.t; (* variable -> its x+ column (x- is +1) *)
  rule : rule;
  mutable degen : int; (* consecutive degenerate pivots *)
}

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
  let prow = t.rows.(r) in
  let inv = Q.inv prow.(c) in
  Array.iteri (fun j v -> prow.(j) <- Q.mul inv v) prow;
  let eliminate row =
    let f = row.(c) in
    if not (Q.is_zero f) then
      Array.iteri (fun j v -> row.(j) <- Q.sub v (Q.mul f prow.(j))) row
  in
  Array.iteri (fun i row -> if i <> r then eliminate row) t.rows;
  eliminate t.obj;
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
      if Q.sign row.(c) > 0 then begin
        let ratio = Q.div row.(t.ncols) row.(c) in
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
  Array.iteri
    (fun r b ->
      let f = t.obj.(b) in
      if not (Q.is_zero f) then
        Array.iteri (fun j v -> t.obj.(j) <- Q.sub v (Q.mul f t.rows.(r).(j))) t.obj)
    t.basis

(* ------------------------------------------------------------------ *)
(* Construction: phase 1 over the constraint list, then compaction      *)
(* ------------------------------------------------------------------ *)

exception Contradictory

(* Phase 1 over [constraints]; [None] when they are infeasible.  Every
   [Ge] row gets a slack column.  Under [Dantzig] a [Ge] row with constant
   >= 0 is negated so its slack has coefficient +1 and starts basic; under
   [Bland], and for [Eq] rows and [Ge] rows the origin violates, the row
   starts on an artificial column.  Phase 1 minimizes the sum of the
   artificials, which sit at the top of the column range and are compacted
   away afterwards. *)
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
  let rhs = ncols in
  let rows = Array.init nrows (fun _ -> Array.make (ncols + 1) Q.zero) in
  let basis = Array.make nrows 0 in
  let col_pos x = Hashtbl.find var_cols x in
  let slack_base = 2 * nvars in
  let art_base = slack_base + nslack in
  let slack_idx = ref 0 and art_idx = ref 0 in
  List.iteri
    (fun r c ->
      let row = rows.(r) in
      Linexpr.fold_terms
        (fun x q () ->
          let cp = col_pos x in
          row.(cp) <- Q.add row.(cp) q;
          row.(cp + 1) <- Q.sub row.(cp + 1) q)
        c.Constr.expr ();
      (* expr + c0 {>=,=} 0 becomes expr_vars {>=,=} -c0 *)
      row.(rhs) <- Q.neg (Linexpr.constant c.Constr.expr);
      let slack = slack_base + !slack_idx in
      (if c.Constr.kind = Constr.Ge then begin
         row.(slack) <- Q.minus_one;
         incr slack_idx
       end);
      if slack_started c then begin
        (* -expr_vars + s = c0 >= 0: the slack is a feasible basic column. *)
        Array.iteri (fun j v -> row.(j) <- Q.neg v) row;
        basis.(r) <- slack
      end
      else begin
        if Q.sign row.(rhs) < 0 then
          Array.iteri (fun j v -> row.(j) <- Q.neg v) row;
        row.(art_base + !art_idx) <- Q.one;
        basis.(r) <- art_base + !art_idx;
        incr art_idx
      end)
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
    (* Drive remaining basic artificials out of the basis. *)
    let keep = Array.make (Array.length t.rows) true in
    Array.iteri
      (fun r b ->
        if b >= art_base then begin
          let c = ref (-1) in
          for j = 0 to art_base - 1 do
            if !c = -1 && not (Q.is_zero t.rows.(r).(j)) then c := j
          done;
          if !c >= 0 then pivot t r !c else keep.(r) <- false
        end)
      t.basis;
    (* Drop redundant rows, then compact the artificial columns away: they
       sit at the top of the column range, so each surviving row is just
       truncated to its decision+slack prefix plus the RHS. *)
    let kept_rows = ref [] and kept_basis = ref [] in
    Array.iteri
      (fun r row ->
        if keep.(r) then begin
          let short = Array.make (art_base + 1) Q.zero in
          Array.blit row 0 short 0 art_base;
          short.(art_base) <- row.(rhs);
          kept_rows := short :: !kept_rows;
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
  Array.iteri (fun r b -> value.(b) <- t.rows.(r).(t.ncols)) t.basis;
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
  for j = t.ncols - 1 downto 0 do
    if Q.sign row.(j) < 0 then begin
      let ratio = Q.div t.obj.(j) (Q.neg row.(j)) in
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
         if Q.sign row.(t.ncols) < 0 then
           if !best = -1 then best := r
           else if (not bland) && Q.compare row.(t.ncols) t.rows.(!best).(t.ncols) < 0
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

(* Extend [t] with the row [e <= 0] into a fresh tableau (a structural
   copy: [t] itself is untouched, so branch-and-bound can keep using it),
   then restore primal feasibility with the dual simplex.  The new slack
   column keeps the objective row dually feasible by construction. *)
let with_le t e =
  let ncols = t.ncols + 1 and nrows = Array.length t.rows in
  let grow row =
    let r = Array.make (ncols + 1) Q.zero in
    Array.blit row 0 r 0 t.ncols;
    r.(ncols) <- row.(t.ncols);
    r
  in
  let rows = Array.make (nrows + 1) [||] in
  Array.iteri (fun i row -> rows.(i) <- grow row) t.rows;
  let basis = Array.make (nrows + 1) 0 in
  Array.blit t.basis 0 basis 0 nrows;
  let row = Array.make (ncols + 1) Q.zero in
  (try
     Linexpr.fold_terms
       (fun x q () ->
         let cp = Hashtbl.find t.var_cols x in
         row.(cp) <- Q.add row.(cp) q;
         row.(cp + 1) <- Q.sub row.(cp + 1) q)
       e ()
   with Not_found -> invalid_arg "Simplex.Tableau.with_le: unknown variable");
  row.(t.ncols) <- Q.one; (* fresh slack: e + s = -const, s >= 0 *)
  row.(ncols) <- Q.neg (Linexpr.constant e);
  rows.(nrows) <- row;
  basis.(nrows) <- t.ncols;
  let t' =
    { rows; basis; obj = grow t.obj; ncols; obj_const = t.obj_const;
      var_cols = t.var_cols; rule = t.rule; degen = 0 }
  in
  (* Express the new row over the current basis. *)
  Array.iteri
    (fun r b ->
      if r < nrows then begin
        let f = row.(b) in
        if not (Q.is_zero f) then
          Array.iteri (fun j v -> row.(j) <- Q.sub v (Q.mul f rows.(r).(j))) row
      end)
    basis;
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

let minimize constraints objective =
  Obs.Counters.incr c_solves;
  let r = minimize_impl constraints objective in
  (match r with Infeasible -> Obs.Counters.incr c_infeasible | _ -> ());
  r

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
