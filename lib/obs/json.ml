type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                             *)
(* ------------------------------------------------------------------ *)

let hex_digit d = "0123456789abcdef".[d]

(* Characters that print as themselves are copied a run at a time; only a
   quote, a backslash or a control character is written on its own. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 0xF))
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* The C primitive behind [Printf]'s [%f]/[%g] on finite floats: same
   text, without interpreting a format string per call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = format_float "%.15g" f in
    if float_of_string s = f then s else format_float "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else Buffer.add_string buf (float_to_string f)
  | String s -> escape_string buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Assoc l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      l;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* ------------------------------------------------------------------ *)
(* parsing                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

(* The parser reads [src] in place: no per-character option or substring,
   only the values it returns allocate. *)
type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))

let at_end st = st.pos >= String.length st.src

(* the current character; callers check [at_end] first *)
let cur st = String.unsafe_get st.src st.pos

let next_is st c = st.pos < String.length st.src && cur st = c

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n && match cur st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c = if next_is st c then advance st else fail st (Printf.sprintf "expected '%c'" c)

let expect_word st w =
  let n = String.length w in
  let rec same i = i = n || (String.unsafe_get st.src (st.pos + i) = w.[i] && same (i + 1)) in
  if st.pos + n <= String.length st.src && same 0 then st.pos <- st.pos + n
  else fail st (Printf.sprintf "expected %s" w)

(* Encode a Unicode code point as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    if at_end st then fail st "bad \\u escape";
    let d =
      match cur st with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

let is_high_surrogate cp = cp >= 0xD800 && cp <= 0xDBFF
let is_low_surrogate cp = cp >= 0xDC00 && cp <= 0xDFFF

(* The code point of the escape after a [\u] at [st.pos]: a high surrogate
   must be followed by a [\u] low surrogate, and a low surrogate may not
   stand alone.  A bad pair is reported at the offending escape's
   backslash. *)
let parse_code_point st =
  let at = st.pos - 2 in
  let cp = parse_hex4 st in
  if is_low_surrogate cp then raise (Parse_error (at, "unpaired surrogate"))
  else if is_high_surrogate cp then begin
    expect st '\\';
    expect st 'u';
    let lo = parse_hex4 st in
    if not (is_low_surrogate lo) then raise (Parse_error (st.pos - 6, "unpaired surrogate"));
    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else cp

(* the end of the run of characters at or after [i] that stand for
   themselves: the first quote or backslash, or the end of input *)
let plain_run_end src i =
  let n = String.length src and i = ref i in
  while
    !i < n && match String.unsafe_get src !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  !i

let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = plain_run_end st.src start in
  if stop < String.length st.src && st.src.[stop] = '"' then begin
    (* no escape: the string is its source text *)
    st.pos <- stop + 1;
    String.sub st.src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    let rec go () =
      if at_end st then fail st "unterminated string"
      else
        match cur st with
        | '"' -> advance st
        | '\\' ->
          advance st;
          if at_end st then fail st "bad escape";
          (match cur st with
           | '"' -> advance st; Buffer.add_char buf '"'
           | '\\' -> advance st; Buffer.add_char buf '\\'
           | '/' -> advance st; Buffer.add_char buf '/'
           | 'n' -> advance st; Buffer.add_char buf '\n'
           | 'r' -> advance st; Buffer.add_char buf '\r'
           | 't' -> advance st; Buffer.add_char buf '\t'
           | 'b' -> advance st; Buffer.add_char buf '\b'
           | 'f' -> advance st; Buffer.add_char buf '\012'
           | 'u' ->
             advance st;
             add_utf8 buf (parse_code_point st)
           | _ -> fail st "bad escape");
          go ()
        | _ ->
          let stop = plain_run_end st.src st.pos in
          Buffer.add_substring buf st.src st.pos (stop - st.pos);
          st.pos <- stop;
          go ()
    in
    go ();
    Buffer.contents buf
  end

(* RFC 8259 number grammar, and nothing more:
     number = [ "-" ] ( "0" / digit1-9 *DIGIT ) [ "." 1*DIGIT ]
              [ ( "e" / "E" ) [ "-" / "+" ] 1*DIGIT ]
   No leading "+", no leading zeros, no bare "1." or "5e". *)
let parse_number st =
  let start = st.pos in
  let is_digit () = (not (at_end st)) && match cur st with '0' .. '9' -> true | _ -> false in
  let digits1 () =
    if not (is_digit ()) then fail st "bad number";
    while is_digit () do
      advance st
    done
  in
  if next_is st '-' then advance st;
  if next_is st '0' then advance st
  else if is_digit () then digits1 ()
  else fail st "bad number";
  let is_float = ref false in
  if next_is st '.' then begin
    is_float := true;
    advance st;
    digits1 ()
  end;
  if next_is st 'e' || next_is st 'E' then begin
    is_float := true;
    advance st;
    if next_is st '-' || next_is st '+' then advance st;
    digits1 ()
  end;
  let s = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail st "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      (* an integer literal past native precision still parses, as Float *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  if at_end st then fail st "unexpected end of input";
  match cur st with
  | 'n' -> expect_word st "null"; Null
  | 't' -> expect_word st "true"; Bool true
  | 'f' -> expect_word st "false"; Bool false
  | '"' -> String (parse_string st)
  | '[' ->
    advance st;
    skip_ws st;
    if next_is st ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      let rec go () =
        skip_ws st;
        if next_is st ',' then begin
          advance st;
          items := parse_value st :: !items;
          go ()
        end
        else if next_is st ']' then advance st
        else fail st "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | '{' ->
    advance st;
    skip_ws st;
    if next_is st '}' then begin
      advance st;
      Assoc []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let items = ref [ field () ] in
      let rec go () =
        skip_ws st;
        if next_is st ',' then begin
          advance st;
          items := field () :: !items;
          go ()
        end
        else if next_is st '}' then advance st
        else fail st "expected ',' or '}'"
      in
      go ();
      Assoc (List.rev !items)
    end
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (Printf.sprintf "trailing garbage at %d" st.pos)
    else Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "%s at %d" msg pos)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> Result.map_error (Printf.sprintf "%s: %s" path) (of_string contents)

(* ------------------------------------------------------------------ *)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | String a, String b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Assoc a, Assoc b ->
    List.length a = List.length b
    && List.for_all2 (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | _ -> false

let member key = function
  | Assoc l -> List.assoc_opt key l
  | _ -> None
