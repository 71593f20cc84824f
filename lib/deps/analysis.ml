open Polyhedra
open Ir

let index_equalities (a : Access.t) (b : Access.t) =
  List.map2 (fun ea eb -> Constr.eq ea eb) a.Access.index b.Access.index

(* One convex precedence slice per lexicographic depth: iterations equal on
   the first [d] iterators and strictly increasing on iterator [d]. *)
let lex_precedence_slices src_iters tgt_iters =
  List.mapi
    (fun d _ ->
      let eqs =
        List.init d (fun i ->
            Constr.eq
              (Linexpr.var (List.nth src_iters i))
              (Linexpr.var (List.nth tgt_iters i)))
      in
      let strict =
        Constr.geq
          (Linexpr.var (List.nth tgt_iters d))
          (Linexpr.add (Linexpr.var (List.nth src_iters d)) (Linexpr.const_int 1))
      in
      (d, strict :: eqs))
    src_iters

let c_analyses =
  Obs.Counters.create "deps.analyses" ~doc:"kernel dependence analyses run"

let c_memo_hits =
  Obs.Counters.create "deps.memo_hits"
    ~doc:"dependence analyses answered from the solver memo"

(* Dependences never name the kernel, so every kernel of one digest has
   the same ones.  The stages of one operator pass one kernel value
   around: the physical test answers them without a digest.  The hash
   reads the tensors, which the digest covers. *)
module Memo = Solver_memo.Make (struct
  type key = Kernel.t
  type value = Dependence.t list

  let hash (k : Kernel.t) = Hashtbl.hash k.Kernel.tensors
  let equal a b = a == b || String.equal (Kernel.digest a) (Kernel.digest b)
  let hits = c_memo_hits
end)

let dependences (k : Kernel.t) =
  Memo.find k @@ fun () ->
  Obs.Span.with_ "deps.analysis" @@ fun () ->
  Obs.Counters.incr c_analyses;
  let stmts = Array.of_list k.Kernel.stmts in
  let n = Array.length stmts in
  let deps = ref [] in
  let add dep = if not (Polyhedron.is_empty dep.Dependence.rel) then deps := dep :: !deps in
  for si = 0 to n - 1 do
    for ti = si to n - 1 do
      let s = stmts.(si) and t = stmts.(ti) in
      let self = si = ti in
      let rename x =
        if self && List.mem x t.Stmt.iters then Dependence.rename_target x else x
      in
      let tgt_iters = List.map rename t.Stmt.iters in
      let tgt_domain = Polyhedron.rename rename t.Stmt.domain in
      let base = Polyhedron.inter s.Stmt.domain tgt_domain in
      let accesses_of st = Stmt.accesses st in
      List.iter
        (fun ((a : Access.t), arw) ->
          List.iter
            (fun ((b : Access.t), brw) ->
              if a.Access.tensor = b.Access.tensor then begin
                let kind =
                  match (arw, brw) with
                  | `Write, `Read -> Some Dependence.Flow
                  | `Read, `Write -> Some Dependence.Anti
                  | `Write, `Write -> Some Dependence.Output
                  | `Read, `Read -> None
                in
                match kind with
                | None -> ()
                | Some kind ->
                  let b_renamed = Access.rename rename b in
                  let conflict =
                    Polyhedron.add_constraints base (index_equalities a b_renamed)
                  in
                  let mk depth rel =
                    add
                      { Dependence.kind;
                        tensor = a.Access.tensor;
                        source = s.Stmt.name;
                        target = t.Stmt.name;
                        src_iters = s.Stmt.iters;
                        tgt_iters;
                        rel;
                        depth
                      }
                  in
                  if self then
                    List.iter
                      (fun (d, slice) ->
                        mk d (Polyhedron.add_constraints conflict slice))
                      (lex_precedence_slices s.Stmt.iters tgt_iters)
                  else mk (-1) conflict
              end)
            (accesses_of t)
        )
        (accesses_of s)
    done
  done;
  List.rev !deps

(* Only [analyse] makes an [analysis], so an installed entry is the one
   [dependences] would compute for every kernel of its digest. *)
type analysis = { kernel : Kernel.t; deps : Dependence.t list }

let analyse kernel = { kernel; deps = dependences kernel }
let deps a = a.deps
let install a = Memo.add a.kernel a.deps

let pp_all fmt deps =
  Format.fprintf fmt "@[<v>";
  List.iter (fun d -> Format.fprintf fmt "%a@," Dependence.pp d) deps;
  Format.fprintf fmt "@]"
