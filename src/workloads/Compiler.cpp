//===- Compiler.cpp - javac-like toy compiler workload -------------------------//

#include "workloads/Compiler.h"

#include "runtime/GcHeap.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

/// GC class ids of the compiler's heap structures.
enum CompilerClassId : uint16_t {
  CIdToken = 10,
  CIdAst = 11,
  CIdCode = 12,
  CIdConstPool = 13,
  CIdBoxedInt = 14,
  CIdUnit = 15
};

/// Token kinds.
enum TokKind : uint8_t {
  TokNum,
  TokVar,
  TokPlus,
  TokMinus,
  TokStar,
  TokLParen,
  TokRParen,
  TokEnd
};

/// AST node kinds.
enum AstKind : uint8_t { AstNum, AstVar, AstAdd, AstSub, AstMul, AstNeg };

/// Stack-machine opcodes.
enum OpCode : uint8_t { OpConst, OpVar, OpAdd, OpSub, OpMul, OpNeg, OpHalt };

constexpr unsigned NumVars = 8;

/// The language's arithmetic: \p Kind is AstAdd, AstSub, AstMul or
/// AstNeg (which ignores \p B). Results wrap in two's complement, computed
/// in uint64_t so overflow is defined; the folder, the evaluation oracle
/// and the interpreter all go through here and so always agree.
int64_t wrapArith(AstKind Kind, int64_t A, int64_t B) {
  uint64_t X = static_cast<uint64_t>(A), Y = static_cast<uint64_t>(B);
  switch (Kind) {
  case AstAdd:
    return static_cast<int64_t>(X + Y);
  case AstSub:
    return static_cast<int64_t>(X - Y);
  case AstMul:
    return static_cast<int64_t>(X * Y);
  case AstNeg:
    return static_cast<int64_t>(0 - X);
  default:
    assert(false && "not an arithmetic node kind");
    return 0;
  }
}

/// Payload layout of tokens and AST nodes: [0] kind, [1] var index,
/// [8..15] 64-bit literal value.
struct NodeBits {
  static uint8_t kind(const Object *Obj) { return Obj->payload()[0]; }
  static uint8_t varIndex(const Object *Obj) { return Obj->payload()[1]; }
  static int64_t value(const Object *Obj) {
    int64_t V;
    std::memcpy(&V, Obj->payload() + 8, sizeof(V));
    return V;
  }
  static void set(Object *Obj, uint8_t Kind, uint8_t Var, int64_t Value) {
    Obj->payload()[0] = Kind;
    Obj->payload()[1] = Var;
    std::memcpy(Obj->payload() + 8, &Value, sizeof(Value));
  }
};

/// One thread's compiler instance. All intermediate structures (token
/// list, AST, code, constant pool) are GC objects; partial structures
/// are anchored on the context's shadow-stack roots.
class Compiler {
public:
  Compiler(GcHeap &Heap, MutatorContext &Ctx, Random &Rng)
      : Heap(Heap), Ctx(Ctx), Rng(Rng) {}

  /// Compiles one random function: returns the code object, and the
  /// directly evaluated expected value through \p Expected.
  /// Returns nullptr on heap exhaustion.
  Object *compileFunction(const int64_t Vars[NumVars], int64_t &Expected,
                          unsigned MaxDepth, bool &Corrupt);

  /// compileFunction's pipeline on given \p Source.
  Object *compileSource(const std::string &Source,
                        const int64_t Vars[NumVars], int64_t &Expected,
                        bool &Corrupt);

  /// Executes a compiled code object on the stack machine.
  static int64_t interpret(const Object *Code, const int64_t Vars[NumVars]);

private:
  // --- Source generation ---
  void genExprSource(std::string &Out, unsigned Depth);

  // --- Lexing: source string -> GC token list ---
  Object *lex(const std::string &Source);
  Object *newToken(TokKind Kind, uint8_t Var, int64_t Value);

  // --- Parsing: token list -> GC AST ---
  Object *parseExpr();
  Object *parseTerm();
  Object *parseFactor();
  Object *newAst(AstKind Kind, uint8_t Var, int64_t Value, Object *Lhs,
                 Object *Rhs);
  uint8_t curKind() const { return Cur ? NodeBits::kind(Cur) : TokEnd; }
  void advance() { Cur = Cur ? GcHeap::readRef(Cur, 0) : nullptr; }

  // --- Constant folding (in-place, via barriered stores) ---
  Object *fold(Object *Node);

  // --- Direct evaluation (the oracle) ---
  static int64_t evalAst(const Object *Node, const int64_t Vars[NumVars]);

  // --- Code generation ---
  void emit(const Object *Node, std::vector<uint8_t> &Ops,
            std::vector<int64_t> &Consts);
  Object *makeCodeObject(const std::vector<uint8_t> &Ops,
                         const std::vector<int64_t> &Consts);

  GcHeap &Heap;
  MutatorContext &Ctx;
  Random &Rng;
  Object *Cur = nullptr;  // Parser cursor into the token list (rooted
                          // via the list head on the shadow stack).
  size_t PushedRoots = 0; // Shadow-stack bookkeeping for one function.
  bool Failed = false;    // Heap exhaustion flag.

  Object *anchored(Object *Obj) {
    if (!Obj) {
      Failed = true;
      return nullptr;
    }
    Ctx.pushRoot(Obj);
    ++PushedRoots;
    return Obj;
  }
};

void Compiler::genExprSource(std::string &Out, unsigned Depth) {
  if (Depth == 0 || Rng.nextBool(0.3)) {
    if (Rng.nextBool(0.5)) {
      Out += std::to_string(Rng.nextBelow(1000));
    } else {
      Out += 'x';
      Out += static_cast<char>('0' + Rng.nextBelow(NumVars));
    }
    return;
  }
  switch (Rng.nextBelow(4)) {
  case 0:
    Out += '(';
    genExprSource(Out, Depth - 1);
    Out += '+';
    genExprSource(Out, Depth - 1);
    Out += ')';
    break;
  case 1:
    Out += '(';
    genExprSource(Out, Depth - 1);
    Out += '-';
    genExprSource(Out, Depth - 1);
    Out += ')';
    break;
  case 2:
    Out += '(';
    genExprSource(Out, Depth - 1);
    Out += '*';
    genExprSource(Out, Depth - 1);
    Out += ')';
    break;
  default:
    Out += '-';
    Out += '(';
    genExprSource(Out, Depth - 1);
    Out += ')';
    break;
  }
}

Object *Compiler::newToken(TokKind Kind, uint8_t Var, int64_t Value) {
  Object *Tok = Heap.allocate(Ctx, 16, 1, CIdToken);
  if (!Tok)
    return nullptr;
  NodeBits::set(Tok, Kind, Var, Value);
  return Tok;
}

Object *Compiler::lex(const std::string &Source) {
  Object *Head = nullptr;
  Object *Tail = nullptr;
  auto append = [&](TokKind Kind, uint8_t Var, int64_t Value) {
    Object *Tok = newToken(Kind, Var, Value);
    if (!Tok) {
      Failed = true;
      return false;
    }
    // Anchor every token: the parser cursor walks the list across
    // allocation (GC) points, and under incremental compaction only
    // stack-anchored objects are pinned.
    anchored(Tok);
    if (Head)
      Heap.writeRef(Ctx, Tail, 0, Tok);
    else
      Head = Tok;
    Tail = Tok;
    return true;
  };

  size_t I = 0;
  while (I < Source.size() && !Failed) {
    char C = Source[I];
    if (C >= '0' && C <= '9') {
      int64_t V = 0;
      while (I < Source.size() && Source[I] >= '0' && Source[I] <= '9')
        V = V * 10 + (Source[I++] - '0');
      append(TokNum, 0, V);
      continue;
    }
    ++I;
    switch (C) {
    case 'x':
      append(TokVar, static_cast<uint8_t>(Source[I++] - '0'), 0);
      break;
    case '+':
      append(TokPlus, 0, 0);
      break;
    case '-':
      append(TokMinus, 0, 0);
      break;
    case '*':
      append(TokStar, 0, 0);
      break;
    case '(':
      append(TokLParen, 0, 0);
      break;
    case ')':
      append(TokRParen, 0, 0);
      break;
    default:
      assert(false && "unexpected character in generated source");
    }
  }
  if (!Failed)
    append(TokEnd, 0, 0);
  // cgc-mole: allow(M1): Head was pinned via anchored() inside append
  return Head;
}

Object *Compiler::newAst(AstKind Kind, uint8_t Var, int64_t Value,
                         Object *Lhs, Object *Rhs) {
  Object *Node = Heap.allocate(Ctx, 16, 2, CIdAst);
  if (!Node) {
    Failed = true;
    return nullptr;
  }
  NodeBits::set(Node, Kind, Var, Value);
  // The operands survived the allocation above because every parse
  // call returns them through anchored(): the shadow stack pins them.
  // cgc-mole: allow(M1): Lhs pinned by anchored() shadow stack
  if (Lhs)
    Heap.writeRef(Ctx, Node, 0, Lhs);
  // cgc-mole: allow(M1): Rhs pinned by anchored() shadow stack
  if (Rhs)
    Heap.writeRef(Ctx, Node, 1, Rhs);
  return anchored(Node);
}

Object *Compiler::parseFactor() {
  if (Failed)
    return nullptr;
  switch (curKind()) {
  case TokNum: {
    int64_t V = NodeBits::value(Cur);
    advance();
    return newAst(AstNum, 0, V, nullptr, nullptr);
  }
  case TokVar: {
    uint8_t Var = NodeBits::varIndex(Cur);
    advance();
    return newAst(AstVar, Var, 0, nullptr, nullptr);
  }
  case TokMinus: {
    advance();
    Object *Sub = parseFactor();
    return Sub ? newAst(AstNeg, 0, 0, Sub, nullptr) : nullptr;
  }
  case TokLParen: {
    advance();
    Object *Inner = parseExpr();
    assert(curKind() == TokRParen && "unbalanced parentheses");
    advance();
    return Inner;
  }
  default:
    assert(false && "unexpected token in factor");
    return nullptr;
  }
}

Object *Compiler::parseTerm() {
  Object *Lhs = parseFactor();
  while (Lhs && curKind() == TokStar) {
    advance();
    Object *Rhs = parseFactor();
    if (!Rhs)
      return nullptr;
    Lhs = newAst(AstMul, 0, 0, Lhs, Rhs);
  }
  return Lhs;
}

Object *Compiler::parseExpr() {
  Object *Lhs = parseTerm();
  while (Lhs && (curKind() == TokPlus || curKind() == TokMinus)) {
    AstKind Kind = curKind() == TokPlus ? AstAdd : AstSub;
    advance();
    Object *Rhs = parseTerm();
    if (!Rhs)
      return nullptr;
    Lhs = newAst(Kind, 0, 0, Lhs, Rhs);
  }
  return Lhs;
}

Object *Compiler::fold(Object *Node) {
  if (!Node || Failed)
    return Node;
  uint8_t Kind = NodeBits::kind(Node);
  if (Kind == AstNum || Kind == AstVar)
    return Node;
  Object *Lhs = fold(GcHeap::readRef(Node, 0));
  // cgc-mole: allow(M1): Node pinned by anchored() since newAst
  Object *Rhs = fold(GcHeap::readRef(Node, 1));
  // Rewire (barriered stores into a possibly-marked object). Lhs/Rhs
  // are themselves anchored() nodes, so they survived the folds above.
  // cgc-mole: allow(M1): Lhs pinned by anchored() shadow stack
  if (Lhs)
    Heap.writeRef(Ctx, Node, 0, Lhs);
  // cgc-mole: allow(M1): Rhs pinned by anchored() shadow stack
  if (Rhs)
    Heap.writeRef(Ctx, Node, 1, Rhs);
  auto isNum = [](Object *N) { return N && NodeBits::kind(N) == AstNum; };
  if (Kind == AstNeg && isNum(Lhs))
    return newAst(AstNum, 0, wrapArith(AstNeg, NodeBits::value(Lhs), 0),
                  nullptr, nullptr);
  // cgc-mole: allow(M1): Lhs/Rhs pinned by anchored() shadow stack
  if (isNum(Lhs) && isNum(Rhs))
    return newAst(AstNum, 0,
                  wrapArith(static_cast<AstKind>(Kind), NodeBits::value(Lhs),
                            NodeBits::value(Rhs)),
                  nullptr, nullptr);
  return Node;
}

int64_t Compiler::evalAst(const Object *Node, const int64_t Vars[NumVars]) {
  switch (uint8_t Kind = NodeBits::kind(Node)) {
  case AstNum:
    return NodeBits::value(Node);
  case AstVar:
    return Vars[NodeBits::varIndex(Node)];
  case AstNeg:
    return wrapArith(AstNeg, evalAst(GcHeap::readRef(Node, 0), Vars), 0);
  case AstAdd:
  case AstSub:
  case AstMul:
    return wrapArith(static_cast<AstKind>(Kind),
                     evalAst(GcHeap::readRef(Node, 0), Vars),
                     evalAst(GcHeap::readRef(Node, 1), Vars));
  }
  assert(false && "corrupt AST node kind");
  return 0;
}

void Compiler::emit(const Object *Node, std::vector<uint8_t> &Ops,
                    std::vector<int64_t> &Consts) {
  switch (NodeBits::kind(Node)) {
  case AstNum:
    assert(Consts.size() < 256 && "constant pool exceeds 8-bit indices");
    Ops.push_back(OpConst);
    Ops.push_back(static_cast<uint8_t>(Consts.size()));
    Consts.push_back(NodeBits::value(Node));
    break;
  case AstVar:
    Ops.push_back(OpVar);
    Ops.push_back(NodeBits::varIndex(Node));
    break;
  case AstNeg:
    emit(GcHeap::readRef(Node, 0), Ops, Consts);
    Ops.push_back(OpNeg);
    break;
  case AstAdd:
  case AstSub:
  case AstMul:
    emit(GcHeap::readRef(Node, 0), Ops, Consts);
    emit(GcHeap::readRef(Node, 1), Ops, Consts);
    Ops.push_back(static_cast<uint8_t>(NodeBits::kind(Node) == AstAdd ? OpAdd
                                       : NodeBits::kind(Node) == AstSub
                                           ? OpSub
                                           : OpMul));
    break;
  default:
    assert(false && "corrupt AST node kind");
  }
}

Object *Compiler::makeCodeObject(const std::vector<uint8_t> &Ops,
                                 const std::vector<int64_t> &Consts) {
  Object *Pool = Heap.allocate(Ctx, 0,
                               static_cast<uint16_t>(Consts.size()),
                               CIdConstPool);
  if (!Pool) {
    Failed = true;
    return nullptr;
  }
  anchored(Pool);
  for (size_t I = 0; I < Consts.size(); ++I) {
    Object *Box = Heap.allocate(Ctx, 8, 0, CIdBoxedInt);
    if (!Box) {
      Failed = true;
      return nullptr;
    }
    std::memcpy(Box->payload(), &Consts[I], 8);
    // cgc-mole: allow(M1): Pool was anchored() right after allocation
    Heap.writeRef(Ctx, Pool, static_cast<unsigned>(I), Box);
  }
  Object *Code = Heap.allocate(Ctx, Ops.size(), 1, CIdCode);
  if (!Code) {
    Failed = true;
    return nullptr;
  }
  std::memcpy(Code->payload(), Ops.data(), Ops.size());
  Heap.writeRef(Ctx, Code, 0, Pool);
  // Anchor: the caller holds the result in a local across the Unit
  // allocation (a GC point); nothing else references the code object
  // yet.
  return anchored(Code);
}

int64_t Compiler::interpret(const Object *Code,
                            const int64_t Vars[NumVars]) {
  const Object *Pool = GcHeap::readRef(Code, 0);
  const uint8_t *Ops = Code->payload();
  int64_t Stack[256];
  int Top = -1;
  for (size_t PC = 0;; ++PC) {
    switch (Ops[PC]) {
    case OpConst: {
      const Object *Box = GcHeap::readRef(Pool, Ops[++PC]);
      int64_t V;
      std::memcpy(&V, Box->payload(), 8);
      Stack[++Top] = V;
      break;
    }
    case OpVar:
      Stack[++Top] = Vars[Ops[++PC]];
      break;
    case OpAdd:
      Stack[Top - 1] = wrapArith(AstAdd, Stack[Top - 1], Stack[Top]);
      --Top;
      break;
    case OpSub:
      Stack[Top - 1] = wrapArith(AstSub, Stack[Top - 1], Stack[Top]);
      --Top;
      break;
    case OpMul:
      Stack[Top - 1] = wrapArith(AstMul, Stack[Top - 1], Stack[Top]);
      --Top;
      break;
    case OpNeg:
      Stack[Top] = wrapArith(AstNeg, Stack[Top], 0);
      break;
    case OpHalt:
      assert(Top == 0 && "stack imbalance in compiled code");
      return Stack[0];
    default:
      assert(false && "corrupt opcode");
      return 0;
    }
  }
}

Object *Compiler::compileFunction(const int64_t Vars[NumVars],
                                  int64_t &Expected, unsigned MaxDepth,
                                  bool &Corrupt) {
  std::string Source;
  genExprSource(Source, 1 + Rng.nextBelow(MaxDepth));
  return compileSource(Source, Vars, Expected, Corrupt);
}

Object *Compiler::compileSource(const std::string &Source,
                                const int64_t Vars[NumVars],
                                int64_t &Expected, bool &Corrupt) {
  PushedRoots = 0;
  Failed = false;

  Object *Tokens = lex(Source);
  Object *Ast = nullptr;
  Object *Code = nullptr;
  if (Tokens && !Failed) {
    Cur = Tokens;
    Ast = parseExpr();
    assert(Failed || curKind() == TokEnd);
  }
  if (Ast && !Failed)
    Ast = fold(Ast);
  if (Ast && !Failed) {
    Expected = evalAst(Ast, Vars);
    std::vector<uint8_t> Ops;
    std::vector<int64_t> Consts;
    emit(Ast, Ops, Consts);
    Ops.push_back(OpHalt);
    Code = makeCodeObject(Ops, Consts);
  }
  if (Code && !Failed) {
    // End-to-end check: the compiled program must agree with the oracle.
    if (interpret(Code, Vars) != Expected)
      Corrupt = true;
    // Retain the AST with the code (javac keeps symbol tables and
    // attributed trees): the long-lived set stays pointer-rich, which
    // is what makes the paper's javac marking expensive.
    Object *Unit = Heap.allocate(Ctx, 0, 2, CIdUnit);
    if (Unit) {
      // cgc-mole: allow(M1): Code pinned by anchored() in makeCodeObject
      Heap.writeRef(Ctx, Unit, 0, Code);
      // cgc-mole: allow(M1): Ast pinned by anchored() at construction
      Heap.writeRef(Ctx, Unit, 1, Ast);
      // Anchor the result before unwinding the shadow stack.
      Ctx.pushRoot(Unit);
      Ctx.popRoots(PushedRoots + 1);
      Ctx.pushRoot(Unit);
      // Caller pops this final anchor after storing it in a fixed root.
      return Unit;
    }
  }
  Ctx.popRoots(PushedRoots);
  return nullptr;
}

} // namespace

CompiledExpression cgc::compileExpression(GcHeap &Heap, MutatorContext &Ctx,
                                          const std::string &Source,
                                          const int64_t (&Vars)[NumVars]) {
  Random Rng(0); // Only source generation draws from it.
  Compiler TheCompiler(Heap, Ctx, Rng);
  CompiledExpression Out;
  bool Corrupt = false;
  Object *Unit =
      TheCompiler.compileSource(Source, Vars, Out.Evaluated, Corrupt);
  if (!Unit)
    return CompiledExpression();
  Out.Compiled = true;
  Out.Interpreted = Compiler::interpret(GcHeap::readRef(Unit, 0), Vars);
  Ctx.popRoots(1);
  return Out;
}

void CompilerWorkload::threadMain(unsigned Index, uint64_t DeadlineNs,
                                  WorkloadResult &Result) {
  MutatorContext &Ctx = Heap.attachThread();
  Random Rng(Config.Seed * 31 + Index + 1);
  size_t Ring = Config.RetainedUnits;
  // Fixed roots: Ring slots for retained units.
  Ctx.reserveRoots(Ring);

  Compiler TheCompiler(Heap, Ctx, Rng);
  uint64_t Units = 0;
  uint64_t StartAllocated =
      Ctx.BytesAllocated.load(std::memory_order_relaxed);
  bool Corrupt = false;
  size_t Slot = 0;

  while (nowNanos() < DeadlineNs && !Corrupt) {
    bool Exhausted = false;
    for (unsigned F = 0; F < Config.FunctionsPerUnit; ++F) {
      int64_t Vars[NumVars];
      for (auto &V : Vars)
        V = static_cast<int64_t>(Rng.nextBelow(100));
      int64_t Expected = 0;
      Object *Code = TheCompiler.compileFunction(Vars, Expected,
                                                 Config.MaxExprDepth, Corrupt);
      if (!Code) {
        Exhausted = true;
        break;
      }
      // Retain the unit's last function (stands in for symbol tables).
      Ctx.setRoot(Slot, Code);
      Ctx.popRoots(1);
      Slot = (Slot + 1) % Ring;
    }
    if (Exhausted)
      break;
    Heap.safepointPoll(Ctx);
    ++Units;
  }

  uint64_t Allocated =
      Ctx.BytesAllocated.load(std::memory_order_relaxed) - StartAllocated;
  Heap.detachThread(Ctx);

  std::atomic_ref<uint64_t>(Result.Transactions)
      .fetch_add(Units, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(Result.BytesAllocated)
      .fetch_add(Allocated, std::memory_order_relaxed);
  if (Corrupt)
    std::atomic_ref<bool>(Result.IntegrityFailure)
        .store(true, std::memory_order_relaxed);
}

WorkloadResult CompilerWorkload::run() {
  WorkloadResult Result;
  Stopwatch Timer;
  uint64_t DeadlineNs = nowNanos() + Config.DurationMs * 1000000ull;

  std::vector<std::thread> Threads;
  Threads.reserve(Config.Threads);
  for (unsigned I = 0; I < Config.Threads; ++I)
    Threads.emplace_back(
        [this, I, DeadlineNs, &Result] { threadMain(I, DeadlineNs, Result); });
  for (std::thread &T : Threads)
    T.join();

  Result.DurationMs = Timer.elapsedMillis();
  return Result;
}
