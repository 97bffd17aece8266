"""Recursive-descent parser for MiniJava.

The only non-LL(1) spot is distinguishing a variable declaration
(``Map<String, File> map = …``) from an expression statement
(``a < b``); the parser resolves it by speculative parsing with
backtracking (:meth:`Parser._try`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend.minijava.lexer import Token, tokenize
from repro.frontend.minijava import nodes as N


class ParseError(SyntaxError):
    """Raised on syntactically invalid MiniJava."""


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token helpers

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def _at_op(self, text: str) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == "op" and tok.text == text

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self._at(kind, text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {self._cur.text!r} "
                f"at line {self._cur.line}, column {self._cur.col}"
            )
        return self._advance()

    def _try(self, parse_fn):
        """Speculatively run ``parse_fn``; roll back on ParseError."""
        saved = self._pos
        try:
            return parse_fn()
        except ParseError:
            self._pos = saved
            return None

    # ------------------------------------------------------------------
    # file structure

    def parse_file(self) -> N.SourceFile:
        imports: List[N.Import] = []
        functions: List[N.FuncDecl] = []
        top_level: List[N.Stmt] = []
        while not self._at("eof"):
            if self._at("keyword", "import"):
                imports.append(self._parse_import())
                continue
            func = self._try(self._parse_func_decl)
            if func is not None:
                functions.append(func)
                continue
            top_level.append(self._parse_statement())
        return N.SourceFile(tuple(imports), tuple(functions), tuple(top_level))

    def _parse_import(self) -> N.Import:
        self._expect("keyword", "import")
        parts = [self._expect("ident").text]
        while self._at_op("."):
            self._advance()
            parts.append(self._expect("ident").text)
        self._expect("op", ";")
        return N.Import(".".join(parts))

    def _parse_func_decl(self) -> N.FuncDecl:
        ret_type = self._parse_type()
        name = self._expect("ident").text
        self._expect("op", "(")
        params: List[Tuple[N.TypeRef, str]] = []
        if not self._at_op(")"):
            while True:
                ptype = self._parse_type()
                pname = self._expect("ident").text
                params.append((ptype, pname))
                if self._at_op(","):
                    self._advance()
                    continue
                break
        self._expect("op", ")")
        body = self._parse_block()
        return N.FuncDecl(ret_type, name, tuple(params), tuple(body))

    # ------------------------------------------------------------------
    # types

    def _parse_type(self) -> N.TypeRef:
        parts = [self._expect("ident").text]
        while self._at_op(".") and self._tokens[self._pos + 1].kind == "ident":
            self._advance()
            parts.append(self._expect("ident").text)
        name = ".".join(parts)
        args: Tuple[N.TypeRef, ...] = ()
        if self._at_op("<"):
            self._advance()
            collected: List[N.TypeRef] = []
            if self._at_op(">"):  # diamond operator: new HashMap<>()
                self._advance()
            else:
                while True:
                    collected.append(self._parse_type())
                    if self._at_op(","):
                        self._advance()
                        continue
                    break
                self._expect("op", ">")
            args = tuple(collected)
        while self._at_op("[") :
            self._advance()
            self._expect("op", "]")
            name += "[]"
        return N.TypeRef(name, args)

    # ------------------------------------------------------------------
    # statements

    def _parse_block(self) -> List[N.Stmt]:
        self._expect("op", "{")
        stmts: List[N.Stmt] = []
        while not self._at_op("}"):
            if self._at("eof"):
                raise ParseError("unexpected end of file in block")
            stmts.append(self._parse_statement())
        self._expect("op", "}")
        return stmts

    def _parse_body(self) -> Tuple[N.Stmt, ...]:
        """A block or a single statement (braceless if/while body)."""
        if self._at_op("{"):
            return tuple(self._parse_block())
        return (self._parse_statement(),)

    def _parse_statement(self) -> N.Stmt:
        if self._at("keyword", "if"):
            return self._parse_if()
        if self._at("keyword", "while"):
            return self._parse_while()
        if self._at("keyword", "for"):
            return self._parse_for()
        if self._at("keyword", "return"):
            return self._parse_return()
        decl = self._try(self._parse_var_decl)
        if decl is not None:
            return decl
        stmt = self._parse_simple_statement()
        self._expect("op", ";")
        return stmt

    def _parse_var_decl(self) -> N.VarDecl:
        type_ref = self._parse_type()
        name = self._expect("ident").text
        init: Optional[N.Expr] = None
        if self._at_op("="):
            self._advance()
            init = self._parse_expression()
        self._expect("op", ";")
        return N.VarDecl(type_ref, name, init)

    def _parse_simple_statement(self) -> N.Stmt:
        """Assignment or expression statement, without the semicolon."""
        expr = self._parse_expression()
        if self._at_op("=") or self._at_op("+=") or self._at_op("-="):
            op = self._advance().text
            is_subscript = isinstance(expr, N.MethodCall) and expr.name == "[]"
            if not isinstance(expr, (N.Name, N.FieldAccess)) and not is_subscript:
                raise ParseError("invalid assignment target")
            value = self._parse_expression()
            if op != "=":
                value = N.Binary(op[0], expr, value)
            return N.Assign(expr, value)
        return N.ExprStmt(expr)

    def _parse_if(self) -> N.IfStmt:
        self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        then_body = self._parse_body()
        else_body: Tuple[N.Stmt, ...] = ()
        if self._at("keyword", "else"):
            self._advance()
            if self._at("keyword", "if"):
                else_body = (self._parse_if(),)
            else:
                else_body = self._parse_body()
        return N.IfStmt(cond, then_body, else_body)

    def _parse_while(self) -> N.WhileStmt:
        self._expect("keyword", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        return N.WhileStmt(cond, self._parse_body())

    def _parse_for(self) -> N.Stmt:
        self._expect("keyword", "for")
        self._expect("op", "(")
        foreach = self._try(self._parse_foreach_header)
        if foreach is not None:
            type_ref, name, iterable = foreach
            body = self._parse_body()
            return N.ForEachStmt(type_ref, name, iterable, body)
        init: Optional[N.Stmt] = None
        if not self._at_op(";"):
            init = self._try(self._parse_var_decl)
            if init is None:
                init = self._parse_simple_statement()
                self._expect("op", ";")
        else:
            self._advance()
        cond: Optional[N.Expr] = None
        if not self._at_op(";"):
            cond = self._parse_expression()
        self._expect("op", ";")
        update: Optional[N.Stmt] = None
        if not self._at_op(")"):
            update = self._parse_simple_statement()
        self._expect("op", ")")
        body = self._parse_body()
        return N.ForStmt(init, cond, update, body)

    def _parse_foreach_header(self):
        type_ref = self._parse_type()
        name = self._expect("ident").text
        self._expect("op", ":")
        iterable = self._parse_expression()
        self._expect("op", ")")
        return (type_ref, name, iterable)

    def _parse_return(self) -> N.ReturnStmt:
        self._expect("keyword", "return")
        if self._at_op(";"):
            self._advance()
            return N.ReturnStmt(None)
        value = self._parse_expression()
        self._expect("op", ";")
        return N.ReturnStmt(value)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_expression(self) -> N.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> N.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        expr = self._parse_binary(level + 1)
        ops = self._BINARY_LEVELS[level]
        tokens = self._tokens
        while tokens[self._pos].kind == "op" and tokens[self._pos].text in ops:
            op = self._advance().text
            right = self._parse_binary(level + 1)
            expr = N.Binary(op, expr, right)
        return expr

    def _parse_unary(self) -> N.Expr:
        if self._at_op("!") or self._at_op("-"):
            op = self._advance().text
            return N.Unary(op, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> N.Expr:
        expr = self._parse_primary()
        while True:
            if self._at_op("."):
                self._advance()
                name = self._expect("ident").text
                if self._at_op("("):
                    args = self._parse_args()
                    expr = N.MethodCall(expr, name, args)
                else:
                    expr = N.FieldAccess(expr, name)
            elif self._at_op("++") or self._at_op("--"):
                op = self._advance().text
                expr = N.Unary(op, expr)
            elif self._at_op("["):
                # array indexing: model as a get-style method call
                self._advance()
                index = self._parse_expression()
                self._expect("op", "]")
                expr = N.MethodCall(expr, "[]", (index,))
            else:
                return expr

    def _parse_args(self) -> Tuple[N.Expr, ...]:
        self._expect("op", "(")
        args: List[N.Expr] = []
        if not self._at_op(")"):
            while True:
                args.append(self._parse_expression())
                if self._at_op(","):
                    self._advance()
                    continue
                break
        self._expect("op", ")")
        return tuple(args)

    def _parse_primary(self) -> N.Expr:
        tok = self._cur
        if tok.kind == "string":
            self._advance()
            return N.Literal(tok.text, "string")
        if tok.kind == "int":
            self._advance()
            return N.Literal(int(tok.text), "int")
        if tok.kind == "float":
            self._advance()
            return N.Literal(float(tok.text), "float")
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self._advance()
            return N.Literal(tok.text == "true", "bool")
        if tok.kind == "keyword" and tok.text == "null":
            self._advance()
            return N.Literal(None, "null")
        if tok.kind == "keyword" and tok.text == "new":
            self._advance()
            type_ref = self._parse_type()
            args = self._parse_args() if self._at_op("(") else ()
            return N.New(type_ref, args)
        if tok.kind == "ident":
            self._advance()
            if self._at_op("("):
                args = self._parse_args()
                return N.MethodCall(None, tok.text, args)
            return N.Name(tok.text)
        if self._at_op("("):
            cast = self._try(self._parse_cast)
            if cast is not None:
                return cast
            self._advance()
            expr = self._parse_expression()
            self._expect("op", ")")
            return expr
        raise ParseError(
            f"unexpected token {tok.text!r} at line {tok.line}, column {tok.col}"
        )

    def _parse_cast(self) -> N.Cast:
        """``(Type) operand`` — only accepted when the parenthesized part
        parses as a type and is followed by a cast-operand start token."""
        self._expect("op", "(")
        type_ref = self._parse_type()
        self._expect("op", ")")
        tok = self._cur
        starts_operand = (
            tok.kind in ("ident", "string", "int", "float")
            or (tok.kind == "keyword" and tok.text in ("new", "true", "false", "null"))
            or (tok.kind == "op" and tok.text == "(")
        )
        if not starts_operand:
            raise ParseError("not a cast")
        return N.Cast(type_ref, self._parse_unary())


def parse(source: str) -> N.SourceFile:
    """Parse MiniJava source text into an AST."""
    return Parser(tokenize(source)).parse_file()
