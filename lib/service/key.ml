(* Bump whenever a cached payload format (the eval entry's columns
   included) or the digest preimage changes: a bump changes every digest,
   so stale entries simply miss (and age out of the size cap) instead of
   being misread.  3: serve lowers infl and cpu
   with the version table's vec_min_parallel, so older serve replies are
   stale.  4: the scheduler's fast-path/ILP choice left every flag list
   (both choices give the same schedule), so every preimage changed.
   5: serve keys no longer carry the operator's name, and serve payloads
   no longer store it (the reply echoes the request's).  6: the kernel
   enters as its name and {!Ir.Kernel.digest}, not its printed text
   (which showed float constants with [%g]), and the machine marshalled. *)
let format_version = 6

type t = { digest : string; format : int; label : string }

let digest t = t.digest
let format t = t.format
let label t = t.label

(* The preimage is exact: the kernel digest covers all but the name, which
   comes last, and the machine is marshalled whole, a field added later
   included; a change in how OCaml marshals can only cause misses. *)
let make ?(format_version = format_version) ?(flags = []) ~kernel ~machine ~version () =
  let b = Buffer.create 512 in
  let add = List.iter (Buffer.add_string b) in
  add [ "akg-repro-cache/"; string_of_int format_version; "\nversion="; version; "\n" ];
  List.iter (fun (k, v) -> add [ "flag:"; k; "="; v; "\n" ]) (List.sort compare flags);
  add
    [ "machine="; Marshal.to_string (machine : Gpusim.Machine.t) [ Marshal.No_sharing ];
      "\nkernel="; Ir.Kernel.digest kernel; "\nname="; kernel.Ir.Kernel.name ];
  { digest = Digest.to_hex (Digest.string (Buffer.contents b));
    format = format_version;
    label = kernel.Ir.Kernel.name ^ "/" ^ version
  }
