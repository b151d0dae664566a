//! Recursive-descent parser for the SQL subset (grammar in [`crate::ast`]).

use crate::ast::{AggFunc, BinOp, CmpOp, Expr, Item, OrderBy, OrderTarget, Predicate, Query};
use crate::token::{lex, Keyword, Token, TokenKind};
use std::fmt;

/// Parse errors with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the offending token.
    pub pos: usize,
    /// What was expected / found.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::token::LexError> for ParseError {
    fn from(e: crate::token::LexError) -> Self {
        ParseError { pos: e.pos, message: e.message }
    }
}

/// The deepest expression tree the parser builds. Parentheses, unary minus
/// and each operator of a chain add a level, and a deeper expression is a
/// [`ParseError`] at the token that crosses the bound. The parser recurses
/// three calls per parenthesis, and lowering the tree and dropping it
/// recurse once per level, all on the caller's stack; 256 levels keeps the
/// deepest of them far below the 2 MiB a spawned thread starts with, and far
/// above any query written or generated in this workspace (the fuzzer's nest
/// at most 3).
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parse one query.
pub fn parse(src: &str) -> Result<Query, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, at: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.at].clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { pos: self.peek().pos, message: message.into() })
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek().kind == TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            self.err(format!("expected {k:?}, found {:?}", self.peek().kind))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind:?}, found {:?}", self.peek().kind))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input: {:?}", self.peek().kind))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let mut items = vec![self.item()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            items.push(self.item()?);
        }
        self.expect_keyword(Keyword::From)?;
        let table = self.ident()?;
        let mut predicates = Vec::new();
        if self.eat_keyword(Keyword::Where) {
            self.predicate_into(&mut predicates)?;
            while self.eat_keyword(Keyword::And) {
                self.predicate_into(&mut predicates)?;
            }
        }
        let mut group_by_key = false;
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            self.expect_keyword(Keyword::Key)?;
            group_by_key = true;
        }
        let mut order_by = None;
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            let target = if self.eat_keyword(Keyword::Key) {
                OrderTarget::Key
            } else {
                OrderTarget::Column(self.ident()?)
            };
            let desc = if self.eat_keyword(Keyword::Desc) {
                true
            } else {
                let _ = self.eat_keyword(Keyword::Asc);
                false
            };
            order_by = Some(OrderBy { target, desc });
        }
        Ok(Query { items, table, predicates, group_by_key, order_by })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if self.peek().kind == TokenKind::Star {
            self.bump();
            return Ok(Item::Star);
        }
        let agg = match self.peek().kind {
            TokenKind::Keyword(Keyword::Sum) => Some(AggFunc::Sum),
            TokenKind::Keyword(Keyword::Count) => Some(AggFunc::Count),
            TokenKind::Keyword(Keyword::Avg) => Some(AggFunc::Avg),
            TokenKind::Keyword(Keyword::Min) => Some(AggFunc::Min),
            TokenKind::Keyword(Keyword::Max) => Some(AggFunc::Max),
            _ => None,
        };
        if let Some(func) = agg {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let arg = if func == AggFunc::Count && self.peek().kind == TokenKind::Star {
                self.bump();
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(TokenKind::RParen)?;
            let alias = self.alias()?;
            return Ok(Item::Agg { func, arg, alias });
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(Item::Expr { expr, alias })
    }

    fn alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_keyword(Keyword::As) {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    /// Parse one predicate; `BETWEEN` desugars into two conjuncts.
    fn predicate_into(&mut self, out: &mut Vec<Predicate>) -> Result<(), ParseError> {
        let lhs = self.expr()?;
        if self.eat_keyword(Keyword::Between) {
            let lo = self.expr()?;
            self.expect_keyword(Keyword::And)?;
            let hi = self.expr()?;
            out.push(Predicate { lhs: lhs.clone(), op: CmpOp::Ge, rhs: lo });
            out.push(Predicate { lhs, op: CmpOp::Le, rhs: hi });
            return Ok(());
        }
        let op = match self.peek().kind {
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            _ => return self.err("expected comparison operator"),
        };
        self.bump();
        let rhs = self.expr()?;
        out.push(Predicate { lhs, op, rhs });
        Ok(())
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.sum(0)?.0)
    }

    /// Fail unless a tree of `levels` levels is within [`MAX_EXPR_DEPTH`];
    /// `pos` is the token that adds the last level.
    fn within(&self, levels: usize, pos: usize) -> Result<(), ParseError> {
        if levels <= MAX_EXPR_DEPTH {
            return Ok(());
        }
        Err(ParseError { pos, message: format!("expression nests deeper than {MAX_EXPR_DEPTH}") })
    }

    /// A sum `depth` levels below the top of its tree, with its height in
    /// levels.
    fn sum(&mut self, depth: usize) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.product(depth)?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            let pos = self.bump().pos;
            let (rhs, h) = self.product(depth)?;
            height = height.max(h) + 1;
            self.within(depth + height, pos)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok((lhs, height))
    }

    /// [`Parser::sum`] for a product.
    fn product(&mut self, depth: usize) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.factor(depth)?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            let pos = self.bump().pos;
            let (rhs, h) = self.factor(depth)?;
            height = height.max(h) + 1;
            self.within(depth + height, pos)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok((lhs, height))
    }

    /// [`Parser::sum`] for a factor. A parenthesis and a unary minus are a
    /// level each, checked before the parser recurses.
    fn factor(&mut self, depth: usize) -> Result<(Expr, usize), ParseError> {
        let leaf = match self.peek().kind.clone() {
            TokenKind::Int(v) => Expr::Int(v),
            TokenKind::Float(v) => Expr::Float(v),
            TokenKind::Keyword(Keyword::Key) => Expr::Key,
            TokenKind::Ident(name) => Expr::Column(name),
            TokenKind::Minus => {
                let pos = self.bump().pos;
                self.within(depth + 2, pos)?;
                let (e, h) = self.factor(depth + 1)?;
                return Ok((Expr::Neg(Box::new(e)), h + 1));
            }
            TokenKind::LParen => {
                let pos = self.bump().pos;
                self.within(depth + 2, pos)?;
                let (e, h) = self.sum(depth + 1)?;
                self.expect(TokenKind::RParen)?;
                return Ok((e, h + 1));
            }
            other => return self.err(format!("expected expression, found {other:?}")),
        };
        self.bump();
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse("SELECT price FROM lineitem WHERE qty < 24").unwrap();
        assert_eq!(q.table, "lineitem");
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(q.predicates[0].op, CmpOp::Lt);
        assert!(!q.group_by_key);
    }

    #[test]
    fn parses_star_and_multiple_predicates() {
        let q = parse("SELECT * FROM t WHERE a < 1 AND b >= 2 AND c <> 3").unwrap();
        assert_eq!(q.items, vec![Item::Star]);
        assert_eq!(q.predicates.len(), 3);
    }

    #[test]
    fn between_desugars_to_two_conjuncts() {
        let q = parse("SELECT * FROM t WHERE d BETWEEN 0.05 AND 0.07").unwrap();
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.predicates[0].op, CmpOp::Ge);
        assert_eq!(q.predicates[1].op, CmpOp::Le);
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let q = parse(
            "SELECT SUM(price * (1 - discount)) AS revenue, COUNT(*), AVG(qty) \
             FROM lineitem GROUP BY KEY",
        )
        .unwrap();
        assert!(q.group_by_key);
        assert_eq!(q.items.len(), 3);
        match &q.items[0] {
            Item::Agg { func: AggFunc::Sum, alias: Some(a), arg: Some(_) } => {
                assert_eq!(a, "revenue")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(q.items[1], Item::Agg { func: AggFunc::Count, arg: None, .. }));
    }

    #[test]
    fn parses_order_by() {
        let q = parse("SELECT a FROM t ORDER BY KEY").unwrap();
        assert_eq!(q.order_by, Some(OrderBy { target: OrderTarget::Key, desc: false }));
        let q = parse("SELECT a FROM t ORDER BY a ASC").unwrap();
        assert_eq!(
            q.order_by,
            Some(OrderBy { target: OrderTarget::Column("a".into()), desc: false })
        );
    }

    #[test]
    fn parses_order_by_desc() {
        let q = parse("SELECT a FROM t ORDER BY a DESC").unwrap();
        assert_eq!(
            q.order_by,
            Some(OrderBy { target: OrderTarget::Column("a".into()), desc: true })
        );
        let q = parse("SELECT a FROM t ORDER BY KEY DESC").unwrap();
        assert_eq!(q.order_by, Some(OrderBy { target: OrderTarget::Key, desc: true }));
    }

    #[test]
    fn count_accepts_a_column_argument() {
        let q = parse("SELECT COUNT(qty) FROM t").unwrap();
        match &q.items[0] {
            Item::Agg { func: AggFunc::Count, arg: Some(Expr::Column(c)), alias: None } => {
                assert_eq!(c, "qty")
            }
            other => panic!("unexpected {other:?}"),
        }
        // COUNT(*) still parses as the arg-less form.
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        assert!(matches!(q.items[0], Item::Agg { func: AggFunc::Count, arg: None, .. }));
    }

    #[test]
    fn precedence_is_mul_over_add() {
        let q = parse("SELECT a + b * c FROM t").unwrap();
        match &q.items[0] {
            Item::Expr { expr: Expr::Binary { op: BinOp::Add, rhs, .. }, .. } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let q = parse("SELECT (a + b) * c FROM t").unwrap();
        match &q.items[0] {
            Item::Expr { expr: Expr::Binary { op: BinOp::Mul, lhs, .. }, .. } => {
                assert!(matches!(**lhs, Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("SELECT FROM t").unwrap_err();
        assert_eq!(err.pos, 7);
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t extra").is_err());
        assert!(parse("SELECT a t").is_err());
    }

    #[test]
    fn unary_minus() {
        let q = parse("SELECT -a FROM t WHERE b < -5").unwrap();
        assert!(matches!(&q.items[0], Item::Expr { expr: Expr::Neg(_), .. }));
        assert_eq!(q.predicates[0].rhs, Expr::Neg(Box::new(Expr::Int(5))));
    }

    /// 100 000 nested parentheses, unary minus signs and terms of one sum
    /// are each an error at the token past the bound, not a stack overflow;
    /// each shape parses at the bound.
    #[test]
    fn deep_expressions_are_errors_up_to_the_bound() {
        let parens = |k: usize| format!("SELECT {}a{} FROM t", "(".repeat(k), ")".repeat(k));
        let minus = |k: usize| format!("SELECT {}a FROM t", "-".repeat(k));
        let sum = |k: usize| format!("SELECT a{} FROM t", " + a".repeat(k));
        // A leaf is one level; each parenthesis, minus or `+` one more.
        let at_bound = MAX_EXPR_DEPTH - 1;
        let shapes: [(&str, &dyn Fn(usize) -> String); 3] =
            [("parens", &parens), ("minus", &minus), ("sum", &sum)];
        for (shape, sql) in shapes {
            assert!(parse(&sql(at_bound)).is_ok(), "{shape} at the bound");
            let err = parse(&sql(at_bound + 1)).unwrap_err();
            assert!(err.message.contains("deeper than"), "{shape}: {err}");
            let err = parse(&sql(100_000)).unwrap_err();
            assert!(err.message.contains("deeper than"), "{shape}: {err}");
            assert!(err.pos < sql(100_000).len() / 2, "{shape}: stops early, at {}", err.pos);
        }
        // Predicates are bounded the same way, on both sides.
        let deep = format!("SELECT a FROM t WHERE a < {}1{}", "(".repeat(300), ")".repeat(300));
        assert!(parse(&deep).unwrap_err().message.contains("deeper than"));
    }
}
