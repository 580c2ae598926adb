module SMap = Map.Make (String)
module IMap = Map.Make (Int)

(* [Fmt f] assigns a reduced emulated format from the precision lattice
   (half, bfloat16, customs). [Single] and [Double] remain distinct
   constructors — not [Fmt Formats.single] / [Fmt Formats.double] — so the
   pre-lattice pipeline, exchange texts and digests stay byte-identical.
   [of_format] normalizes incoming formats onto that convention. *)
type flag = Single | Double | Ignore | Fmt of Formats.t

let of_format f =
  if Formats.equal f Formats.single then Single
  else if Formats.equal f Formats.double then Double
  else Fmt f

let format_of_flag = function
  | Single -> Some Formats.single
  | Double -> Some Formats.double
  | Fmt f -> Some f
  | Ignore -> None

type t = {
  modules : flag SMap.t;
  funcs : flag SMap.t;
  blocks : flag IMap.t;
  insns : flag IMap.t;
}

let empty =
  { modules = SMap.empty; funcs = SMap.empty; blocks = IMap.empty; insns = IMap.empty }

let set_module t m f = { t with modules = SMap.add m f t.modules }
let set_func t name f = { t with funcs = SMap.add name f t.funcs }
let set_block t label f = { t with blocks = IMap.add label f t.blocks }
let set_insn t addr f = { t with insns = IMap.add addr f t.insns }

let set_node t node f =
  match (node : Static.node) with
  | Module (m, _) -> set_module t m f
  | Func (_, name, _) -> set_func t name f
  | Block (label, _) -> set_block t label f
  | Insn { addr; _ } -> set_insn t addr f

let union a b =
  let keep_left _ x _ = Some x in
  {
    modules = SMap.union (fun k x y -> keep_left k x y) a.modules b.modules;
    funcs = SMap.union (fun k x y -> keep_left k x y) a.funcs b.funcs;
    blocks = IMap.union (fun k x y -> keep_left k x y) a.blocks b.blocks;
    insns = IMap.union (fun k x y -> keep_left k x y) a.insns b.insns;
  }

(* Aggregates override children (paper §2.1), so resolution goes from the
   coarsest structure inwards. *)
let effective t (info : Static.insn_info) =
  match SMap.find_opt info.module_name t.modules with
  | Some f -> f
  | None -> (
      match SMap.find_opt info.fname t.funcs with
      | Some f -> f
      | None -> (
          match IMap.find_opt info.block_label t.blocks with
          | Some f -> f
          | None -> (
              match IMap.find_opt info.addr t.insns with Some f -> f | None -> Double)))

let is_empty t =
  SMap.is_empty t.modules && SMap.is_empty t.funcs && IMap.is_empty t.blocks
  && IMap.is_empty t.insns

let flag_char = function Single -> 's' | Double -> 'd' | Ignore -> 'i' | Fmt _ -> 'e'

let flag_of_char = function
  | 's' -> Some Single
  | 'd' -> Some Double
  | 'i' -> Some Ignore
  | _ -> None

(* Canonical flag token for exchange texts and digests: the
   historical one-character flags for the three base decisions, and the
   format's ["e<E>m<M>"] token for lattice formats — lowercase, so it can
   never be mistaken for the uppercase structure keywords. *)
let flag_token = function
  | Single -> "s"
  | Double -> "d"
  | Ignore -> "i"
  | Fmt f -> Formats.token f

let flag_of_token tok =
  match tok with
  | "s" -> Some Single
  | "d" -> Some Double
  | "i" -> Some Ignore
  | _ -> (
      (* accept any spelling Formats knows (e5m10, bf16, f16, tf32, ...)
         and normalize single/double back onto the base constructors *)
      match Formats.of_string tok with
      | Some f -> Some (of_format f)
      | None -> None)

let print (p : Ir.program) t =
  let buf = Buffer.create 4096 in
  let line ?flag ~indent fmt =
    Format.kasprintf
      (fun s ->
        (* one-character tokens (s/d/i and unflagged) render byte-identically
           to the pre-lattice format; lattice formats widen the flag column
           with their e<E>m<M> token *)
        let tok = match flag with Some f -> flag_token f | None -> " " in
        Buffer.add_string buf tok;
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let ordinal = ref 0 in
  let emit_node node =
    match (node : Static.node) with
    | Module (m, funcs) ->
        line ?flag:(SMap.find_opt m t.modules) ~indent:1 "MODULE: %s" m;
        List.iter
          (fun fnode ->
            match (fnode : Static.node) with
            | Func (fid, name, blocks) ->
                line ?flag:(SMap.find_opt name t.funcs) ~indent:3 "FUNC%02d: %s()" (fid + 1)
                  name;
                List.iter
                  (fun bnode ->
                    match (bnode : Static.node) with
                    | Block (label, insns) ->
                        line ?flag:(IMap.find_opt label t.blocks) ~indent:5 "BBLK%02d" label;
                        List.iter
                          (fun inode ->
                            match (inode : Static.node) with
                            | Insn info ->
                                incr ordinal;
                                line
                                  ?flag:(IMap.find_opt info.addr t.insns)
                                  ~indent:7 "INSN%02d: 0x%06x \"%s\"" !ordinal info.addr
                                  info.disasm
                            | Module _ | Func _ | Block _ -> ())
                          insns
                    | Module _ | Func _ | Insn _ -> ())
                  blocks
            | Module _ | Block _ | Insn _ -> ())
          funcs
    | Func _ | Block _ | Insn _ -> ()
  in
  List.iter emit_node (Static.tree p);
  Buffer.contents buf

let parse (p : Ir.program) text =
  let known_modules =
    Array.to_list p.modules |> List.to_seq |> Seq.map (fun m -> (m, ())) |> Hashtbl.of_seq
  in
  let known_funcs = Hashtbl.create 16 in
  Array.iter (fun (f : Ir.func) -> Hashtbl.replace known_funcs f.fname ()) p.funcs;
  let known_blocks = Hashtbl.create 64 in
  let known_addrs = Hashtbl.create 256 in
  Array.iter
    (fun (f : Ir.func) ->
      Array.iter
        (fun (b : Ir.block) ->
          Hashtbl.replace known_blocks b.label ();
          Array.iter
            (fun (i : Ir.instr) ->
              if Ir.is_candidate i.op then Hashtbl.replace known_addrs i.addr ())
            b.instrs)
        f.blocks)
    p.funcs;
  let result = ref empty in
  let error = ref None in
  let fail lineno fmt =
    Format.kasprintf
      (fun s -> if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno s))
      fmt
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      if String.trim raw <> "" && !error = None then begin
        (* Flag column. The historical one-character flags (and the unflagged
           space) parse exactly as before. Anything else lowercase before the
           first space is a lattice-format token; an unknown token is a hard
           error — a worker fed a config from a newer peer must reject it,
           not silently drop the flag. *)
        let flag, body =
          match raw.[0] with
          | 's' | 'd' | 'i' | ' ' ->
              ( flag_of_char raw.[0],
                String.trim
                  (if String.length raw > 1 then String.sub raw 1 (String.length raw - 1)
                   else "") )
          | _ ->
              let toklen =
                match String.index_opt raw ' ' with
                | Some j -> j
                | None -> String.length raw
              in
              let tok = String.sub raw 0 toklen in
              (match flag_of_token tok with
              | Some fl -> (Some fl, String.trim (String.sub raw toklen (String.length raw - toklen)))
              | None ->
                  fail lineno "unknown flag token %S" tok;
                  (None, ""))
        in
        let with_flag f = match flag with Some fl -> f fl | None -> () in
        if String.length body >= 7 && String.sub body 0 7 = "MODULE:" then begin
          let m = String.trim (String.sub body 7 (String.length body - 7)) in
          if not (Hashtbl.mem known_modules m) then fail lineno "unknown module %S" m
          else with_flag (fun fl -> result := set_module !result m fl)
        end
        else if String.length body >= 4 && String.sub body 0 4 = "FUNC" then begin
          match String.index_opt body ':' with
          | None -> fail lineno "malformed FUNC line"
          | Some i ->
              let name = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
              let name =
                if String.length name >= 2 && String.sub name (String.length name - 2) 2 = "()"
                then String.sub name 0 (String.length name - 2)
                else name
              in
              if not (Hashtbl.mem known_funcs name) then fail lineno "unknown function %S" name
              else with_flag (fun fl -> result := set_func !result name fl)
        end
        else if String.length body >= 4 && String.sub body 0 4 = "BBLK" then begin
          match int_of_string_opt (String.sub body 4 (String.length body - 4)) with
          | None -> fail lineno "malformed BBLK line"
          | Some label ->
              if not (Hashtbl.mem known_blocks label) then fail lineno "unknown block %d" label
              else with_flag (fun fl -> result := set_block !result label fl)
        end
        else if String.length body >= 4 && String.sub body 0 4 = "INSN" then begin
          match String.index_opt body ':' with
          | None -> fail lineno "malformed INSN line"
          | Some i -> (
              let rest = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
              let addr_str =
                match String.index_opt rest ' ' with
                | Some j -> String.sub rest 0 j
                | None -> rest
              in
              match int_of_string_opt addr_str with
              | None -> fail lineno "malformed instruction address %S" addr_str
              | Some addr ->
                  if not (Hashtbl.mem known_addrs addr) then
                    fail lineno "unknown instruction address 0x%x" addr
                  else with_flag (fun fl -> result := set_insn !result addr fl))
        end
        else fail lineno "unrecognized line %S" body
      end)
    lines;
  match !error with Some e -> Error e | None -> Ok !result

(* FNV-1a over the effective flag of every candidate, so two configurations
   that resolve to the same per-instruction decisions share a digest — exactly
   the equivalence the evaluation memoizer needs. The flag contributes its
   token bytes: one byte for s/d/i, so every pre-lattice digest (and with it
   every old store log) is unchanged. *)
let digest (p : Ir.program) t =
  let h = ref 0xcbf29ce484222325L in
  let mix c = h := Int64.mul (Int64.logxor !h (Int64.of_int c)) 0x100000001b3L in
  Array.iter
    (fun (info : Static.insn_info) ->
      mix info.addr;
      String.iter (fun c -> mix (Char.code c)) (flag_token (effective t info)))
    (Static.candidates p);
  Printf.sprintf "%016Lx" !h

let summarize t =
  let buf = Buffer.create 128 in
  let add fmt =
    Format.kasprintf
      (fun s ->
        if Buffer.length buf > 0 then Buffer.add_string buf "; ";
        Buffer.add_string buf s)
      fmt
  in
  SMap.iter (fun m f -> add "%s MODULE: %s" (flag_token f) m) t.modules;
  SMap.iter (fun n f -> add "%s FUNC: %s()" (flag_token f) n) t.funcs;
  IMap.iter (fun l f -> add "%s BBLK%02d" (flag_token f) l) t.blocks;
  IMap.iter (fun a f -> add "%s INSN: 0x%06x" (flag_token f) a) t.insns;
  if Buffer.length buf = 0 then "(all-double)" else Buffer.contents buf

let stats p t =
  (* lattice formats count as replaced (the first component): they narrow
     at least as far as single does *)
  let s = ref 0 and d = ref 0 and i = ref 0 in
  Array.iter
    (fun info ->
      match effective t info with
      | Single | Fmt _ -> incr s
      | Double -> incr d
      | Ignore -> incr i)
    (Static.candidates p);
  (!s, !d, !i)

let bits_saved p t =
  Array.fold_left
    (fun acc info ->
      match format_of_flag (effective t info) with
      | Some f -> acc + Formats.bits_saved f
      | None -> acc)
    0 (Static.candidates p)

let format_census p t =
  let tbl = Hashtbl.create 8 in
  let bump k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Array.iter
    (fun info ->
      match effective t info with
      | Ignore -> bump "ignore"
      | fl -> (
          match format_of_flag fl with
          | Some f -> bump (Formats.name f)
          | None -> assert false))
    (Static.candidates p);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
