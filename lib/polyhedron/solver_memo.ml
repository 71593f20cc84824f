(* Each table made by [Make] owns one slot of a scope; its store is an
   extension of [store], so one scope can hold tables of any key and value
   types. *)
type store = ..

type scope = { mutable stores : store option array }

let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let fresh () = { stores = [||] }

let within scope f =
  let saved = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key (Some scope);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key saved) f

let scoped f = within (fresh ()) f

let next_slot = Atomic.make 0

module type TABLE = sig
  type key
  type value

  val hash : key -> int
  val equal : key -> key -> bool
  val hits : Obs.Counters.t
end

module Make (T : TABLE) = struct
  (* The key's hash is computed once per lookup and carried along. *)
  type hashed = { h : int; key : T.key }

  module H = Hashtbl.Make (struct
    type t = hashed

    let hash w = w.h
    let equal a b = a.h = b.h && T.equal a.key b.key
  end)

  type store += Store of T.value H.t

  let slot = Atomic.fetch_and_add next_slot 1

  let table scope =
    let n = Array.length scope.stores in
    if slot >= n then begin
      let a = Array.make (slot + 1) None in
      Array.blit scope.stores 0 a 0 n;
      scope.stores <- a
    end;
    match scope.stores.(slot) with
    | Some (Store t) -> t
    | Some _ | None ->
      let t = H.create 256 in
      scope.stores.(slot) <- Some (Store t);
      t

  let find key solve =
    match Domain.DLS.get scope_key with
    | None -> solve ()
    | Some scope -> (
      let tbl = table scope in
      (* [Hashtbl.hash] mixes the structural hash into good low bits. *)
      let w = { h = Hashtbl.hash (T.hash key); key } in
      match H.find_opt tbl w with
      | Some v ->
        Obs.Counters.incr T.hits;
        v
      | None ->
        let v = solve () in
        H.replace tbl w v;
        v)

  let add key value =
    match Domain.DLS.get scope_key with
    | None -> ()
    | Some scope -> H.replace (table scope) { h = Hashtbl.hash (T.hash key); key } value
end

let hash_constrs h cs = List.fold_left (fun h c -> (h * 65599) + Constr.hash c) h cs

let equal_constrs a b = a == b || List.equal (fun x y -> x == y || Constr.equal x y) a b
