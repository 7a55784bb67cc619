(* Every text front end but the property grammar (fuzzed in test_prop)
   under mutation: the C parser and typechecker, [--prop] expressions,
   IL text, the assembler and [--fault] knobs each return a value or a
   [Loc.Error] inside the input, never another exception, within the
   time cap of [Text_fuzz]. The corpora are texts the repository already
   has: the EEE source and test programs, the IL that [tcheck automaton]
   prints for the EEE properties, the assembly [Mcc.Codegen] emits for
   the EEE program, and the knobs the tests and CI pass to [--fault]. *)

let eee_source = Eee.Eee_source.default ()

let test_programs =
  [
    {|int z;
int main(void) {
  return 1 / z;
}
|};
    {|int g;
int main(void) {
  switch (g) {
    case 0: int x = 5; break;
    case 1: g = x; break;
  }
  return g;
}
|};
    {|const int K = 0 && 1 / 0;
const int L = 1 || 1 % 0;
int main(void) { return K + L; }
|};
    {|int counter;
void main(void) {
  int i;
  for (i = 0; i < 10; i = i + 1) { counter = counter + 1; }
}
|};
    {|int a[4];
int g = 0xFFFFFFFF;
bool f = true;
int sum(int n) {
  int s = 0;
  do { s += a[n]; n--; } while (n >= 0);
  return s;
}
void main(void) {
  a[1] = mem_read(16);
  mem_write(16, nondet(0, 3));
  assert(sum(3) >= 0);
  halt();
}
|};
  ]

let qcheck_c_programs =
  Text_fuzz.total ~count:300
    ~name:"C programs (parse, check) total on mutated corpora"
    ~tokens:
      [ "int"; "bool"; "void"; "const"; "("; ")"; "{"; "}"; "["; "]"; ";"; "=";
        "/"; "% 0"; "0x"; "case 1:"; "switch"; "default:"; "break;"; "/*"; "*/";
        "//"; "\n"; "x"; "main"; "nondet("; "return"; "if (g)"; "else";
        "99999999999999999999"; "0xFFFFFFFFFFFFFFFFF"; "4611686018427387903" ]
    (Array.of_list (eee_source :: test_programs))
    (fun source -> Minic.Typecheck.check (Minic.C_parser.parse source))

let prop_program =
  Minic.Typecheck.check
    (Minic.C_parser.parse
       {|int counter; int finished; int g; bool flag; int arr[4];
const int K = 3;
void main(void) { counter = 1; }|})

let qcheck_props =
  Text_fuzz.total ~name:"--prop expressions total on mutated corpora"
    ~tokens:
      [ "counter"; "finished"; "fname"; "arr"; "arr[1]"; "K"; "nosuch"; "f()";
        "nondet(0, 1)"; "*"; "=="; "<="; "/ 0"; "&&"; "||"; "!"; "("; ")";
        "99999999999999999999"; "\n" ]
    [| "counter <= 11"; "finished == 1"; "g >= 0"; "counter > 5";
       "counter == 10"; "x / 0 > 1"; "flag && !(g % 2 == 1) || counter != 0" |]
    (Verif.Session.check_proposition prop_program)

let eee_il =
  List.map
    (fun op ->
      let formula = Sctc.Prop.parse_exn (Eee.Eee_spec.property_text op) in
      Il.to_string
        (Il.of_automaton ~name:"property" (Ar_automaton.synthesize formula)))
    Eee.Eee_spec.all_ops

let qcheck_il =
  Text_fuzz.total ~count:300 ~name:"IL text total on mutated corpora"
    ~tokens:
      [ "state "; "on "; " -> "; ";"; "{"; "}"; "pending"; "accept"; "reject";
        "props: "; "initial: "; "automaton "; "\n"; "0"; "1"; "-"; "9"; "-1";
        "99999999999999999999"; "4611686018427387903" ]
    (Array.of_list eee_il) Il.parse

(* the EEE program's assembly, whole and in 40-line pieces *)
let eee_asm =
  let text = (Eee.Eee_program.compile ()).Mcc.Codegen.asm_source in
  let rec pieces acc = function
    | [] -> List.rev acc
    | lines ->
      let piece = List.filteri (fun i _ -> i < 40) lines in
      pieces
        (String.concat "\n" piece :: acc)
        (List.filteri (fun i _ -> i >= 40) lines)
  in
  text :: pieces [] (String.split_on_char '\n' text)

let qcheck_asm =
  Text_fuzz.total ~count:300 ~name:"assembler text total on mutated corpora"
    ~tokens:
      [ "addi"; "lui"; "lw"; "sw"; "beq"; "jal"; "jalr"; "trap"; "halt"; "r4";
        "r16"; ", "; "("; ")"; ":"; "; c"; "# c"; "\n"; "fn_main"; "8192";
        "-8193"; "4194304"; "0x"; "99999999999999999999" ]
    (Array.of_list eee_asm) Cpu.Asm.assemble_words

let qcheck_faults =
  Text_fuzz.total ~name:"--fault knobs total on mutated corpora"
    ~tokens:
      [ "decay"; "power-loss"; "jitter"; "="; ":"; "0.5"; "2"; "nan"; "-";
        "1e9"; "99999999999999999999"; "\n" ]
    [| "decay=0.1"; "power-loss=0.2"; "jitter=0.3:5"; "decay=2.0"; "jitter=0.1";
       "jitter=0.1:0"; "decay=0.0005"; "power-loss=0.05"; "power-loss=0.4";
       "bogus=1"; "decay"; "decay=x"; "power-loss=-0.1" |]
    (fun spec -> Smc.Faults.parse_knob spec Smc.Faults.none)

let () =
  Alcotest.run "front-ends"
    [
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_c_programs; qcheck_props; qcheck_il; qcheck_asm;
            qcheck_faults;
          ]
      );
    ]
